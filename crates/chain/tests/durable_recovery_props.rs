//! Crash-recovery property suite for the durable state backend.
//!
//! The crash model is kill-at-any-write-point: the process dies after an
//! arbitrary prefix of the journal append reached the filesystem. The
//! suite mines a short chain through a durable [`ChainStore`], then for
//! EVERY byte boundary of the resulting journal builds a directory whose
//! tail segment is truncated at that boundary, reopens it, and asserts
//! the recovered state root is byte-equal to the root of the longest
//! intact committed prefix — never a torn half-block, never a stale
//! block when a full record survived.
//!
//! A second property drives the fault-injecting [`FaultWriter`] directly
//! over the record framing, and a third pins an epoch across several
//! snapshot+GC cycles to prove held views stay byte-frozen while
//! everything around them is compacted away. A fourth forges one
//! journaled account image under a valid checksum and requires recovery
//! to refuse it at that block's height.

use std::fs;
use std::path::{Path, PathBuf};

use bytes::Bytes;
use sereth_chain::builder::{build_block, BlockLimits};
use sereth_chain::genesis::{Genesis, GenesisBuilder};
use sereth_chain::store::{ChainStore, ImportOutcome, StoreConfig};
use sereth_chain::DurableOptions;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::sig::SecretKey;
use sereth_store::{encode_record, scratch_dir, BlockRecord, FaultWriter, RecordScanner, StoreError};
use sereth_types::transaction::{Transaction, TxPayload};
use sereth_types::u256::U256;

fn genesis(key: &SecretKey) -> Genesis {
    GenesisBuilder::new().fund(key.address(), U256::from(100_000_000u64)).build()
}

fn transfer(key: &SecretKey, nonce: u64) -> Transaction {
    Transaction::sign(
        TxPayload {
            nonce,
            gas_price: 1,
            gas_limit: 21_000,
            to: Some(Address::from_low_u64(7)),
            value: U256::from(5u64),
            input: Bytes::new(),
        },
        key,
    )
}

fn extend(store: &ChainStore, txs: Vec<Transaction>, ts: u64) -> sereth_types::block::Block {
    let parent = store.head_block().header.clone();
    build_block(&parent, store.head_state(), txs, Address::from_low_u64(1), ts, &BlockLimits::default()).block
}

/// The single journal segment in `dir` (the fixtures stay far below the
/// rotation threshold, so exactly one must exist).
fn journal_segment(dir: &Path) -> PathBuf {
    let mut segments: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.starts_with("journal-") && name.ends_with(".seg"))
        })
        .collect();
    assert_eq!(segments.len(), 1, "fixture must fit one segment: {segments:?}");
    segments.pop().unwrap()
}

/// Copies every store file from `src` into a fresh `dst`, truncating the
/// journal segment to `keep` bytes — the on-disk image of a process
/// killed mid-append.
fn crashed_copy(src: &Path, dst: &Path, keep: u64) {
    fs::create_dir_all(dst).unwrap();
    for entry in fs::read_dir(src).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_owned();
        fs::copy(&path, dst.join(&name)).unwrap();
    }
    let journal = journal_segment(dst);
    let file = fs::OpenOptions::new().write(true).open(&journal).unwrap();
    file.set_len(keep).unwrap();
}

/// Kill-at-any-write-point: truncate the journal at EVERY byte boundary,
/// recover, and require the state root to be byte-equal to the root of
/// the longest intact committed prefix.
#[test]
fn recovery_is_byte_equal_at_every_truncation_point() {
    const BLOCKS: u64 = 3;
    let key = SecretKey::from_label(1);
    let dir = scratch_dir("recovery-props");
    let mut store = ChainStore::open(StoreConfig::durable(genesis(&key), &dir)).unwrap();

    // `cuts[k]` is the journal length once block k is committed; the root
    // and head hash alongside it are what recovery must reproduce when
    // the tail is cut anywhere in [cuts[k], cuts[k+1]).
    let journal = journal_segment(&dir);
    let mut cuts: Vec<u64> = vec![0];
    let mut roots: Vec<H256> = vec![store.head_state_view().state_root()];
    let mut heads: Vec<H256> = vec![store.head_hash()];
    for nonce in 0..BLOCKS {
        let block = extend(&store, vec![transfer(&key, nonce)], (nonce + 1) * 15_000);
        assert_eq!(store.import(block).unwrap(), ImportOutcome::ExtendedCanonical);
        cuts.push(fs::metadata(&journal).unwrap().len());
        roots.push(store.head_state_view().state_root());
        heads.push(store.head_hash());
    }
    drop(store);
    let total = *cuts.last().unwrap();
    assert!(total > 0, "the journal must have content to truncate");

    let crash_dir = scratch_dir("recovery-props-crash");
    for keep in 0..=total {
        // The longest committed prefix whose journal bytes fully survive.
        let intact = cuts.iter().rposition(|&cut| cut <= keep).unwrap();
        let case = crash_dir.join(format!("keep-{keep:06}"));
        crashed_copy(&dir, &case, keep);

        let recovered = ChainStore::open(StoreConfig::durable(genesis(&key), &case))
            .unwrap_or_else(|err| panic!("recovery failed at truncation {keep}: {err}"));
        assert_eq!(recovered.head_number(), intact as u64, "wrong recovered height at truncation {keep}");
        assert_eq!(recovered.head_hash(), heads[intact], "wrong recovered head at truncation {keep}");
        assert_eq!(
            recovered.head_state_view().state_root(),
            roots[intact],
            "state root not byte-equal at truncation {keep}"
        );
        drop(recovered);
        fs::remove_dir_all(&case).unwrap();
    }

    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&crash_dir).unwrap();
}

/// A recovered directory is clean for appending: after any crash point,
/// the reopened store keeps importing and a further reopen agrees.
#[test]
fn recovered_store_keeps_importing_after_mid_record_tears() {
    const BLOCKS: u64 = 2;
    let key = SecretKey::from_label(1);
    let dir = scratch_dir("recovery-resume");
    let mut store = ChainStore::open(StoreConfig::durable(genesis(&key), &dir)).unwrap();
    for nonce in 0..BLOCKS {
        let block = extend(&store, vec![transfer(&key, nonce)], (nonce + 1) * 15_000);
        store.import(block).unwrap();
    }
    let journal = journal_segment(&dir);
    let total = fs::metadata(&journal).unwrap().len();
    drop(store);

    let crash_dir = scratch_dir("recovery-resume-crash");
    // A spread of tear points is enough here — the byte-exhaustive root
    // check lives in `recovery_is_byte_equal_at_every_truncation_point`.
    for keep in [1, total / 4, total / 2, total - 1] {
        let case = crash_dir.join(format!("keep-{keep:06}"));
        crashed_copy(&dir, &case, keep);

        let mut recovered = ChainStore::open(StoreConfig::durable(genesis(&key), &case)).unwrap();
        let resume_nonce = recovered.head_number();
        let block = extend(&recovered, vec![transfer(&key, resume_nonce)], 90_000);
        assert_eq!(
            recovered.import(block).unwrap(),
            ImportOutcome::ExtendedCanonical,
            "recovered store must keep importing after a tear at {keep}"
        );
        let head = recovered.head_hash();
        let root = recovered.head_state_view().state_root();
        drop(recovered);

        let reread = ChainStore::open(StoreConfig::durable(genesis(&key), &case)).unwrap();
        assert_eq!(reread.head_hash(), head, "post-recovery appends must persist (tear at {keep})");
        assert_eq!(reread.head_state_view().state_root(), root);
        drop(reread);
        fs::remove_dir_all(&case).unwrap();
    }

    fs::remove_dir_all(&dir).unwrap();
    fs::remove_dir_all(&crash_dir).unwrap();
}

/// Corruption past the crash model: a journal record whose account image
/// was altered but whose checksum is valid decodes fine, so only the
/// per-block state-root check during replay can catch it — and it must,
/// naming the forged block's height.
#[test]
fn forged_account_image_fails_recovery_at_its_height() {
    const BLOCKS: u64 = 3;
    const FORGED: u64 = 2;
    let key = SecretKey::from_label(1);
    let dir = scratch_dir("recovery-forged");
    let mut store = ChainStore::open(StoreConfig::durable(genesis(&key), &dir)).unwrap();
    for nonce in 0..BLOCKS {
        let block = extend(&store, vec![transfer(&key, nonce)], (nonce + 1) * 15_000);
        store.import(block).unwrap();
    }
    drop(store);

    let journal = journal_segment(&dir);
    let bytes = fs::read(&journal).unwrap();
    let mut rewritten = Vec::new();
    for payload in RecordScanner::new(&bytes) {
        let mut record = BlockRecord::decode(payload).unwrap();
        if record.epoch() == FORGED {
            let image = record.writes.iter_mut().find_map(|(_, post)| post.as_mut()).expect("a post-image");
            image.balance = image.balance + U256::from(1u64);
        }
        rewritten.extend_from_slice(&encode_record(&record.encode()));
    }
    assert_eq!(rewritten.len(), bytes.len(), "the forgery keeps every record's length");
    fs::write(&journal, rewritten).unwrap();

    match ChainStore::open(StoreConfig::durable(genesis(&key), &dir)) {
        Err(StoreError::Corrupt(message)) => {
            assert!(message.contains(&format!("block {FORGED} ")), "names the height: {message}")
        }
        Err(other) => panic!("expected Corrupt, got {other}"),
        Ok(store) => panic!("recovered a forged journal to height {}", store.head_number()),
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// The framing layer under the same crash model: for every write limit,
/// a [`FaultWriter`] that persists only the first `limit` bytes yields a
/// journal whose scanner recovers exactly the records that landed whole.
#[test]
fn fault_writer_scans_back_exactly_the_whole_records() {
    let payloads: Vec<Vec<u8>> = (0u8..5).map(|i| vec![i; 3 + 17 * i as usize]).collect();
    let mut encoded = Vec::new();
    let mut ends = vec![0usize];
    for payload in &payloads {
        encoded.extend_from_slice(&encode_record(payload));
        ends.push(encoded.len());
    }

    for limit in 0..=encoded.len() {
        let mut writer = FaultWriter::new(Vec::new(), limit);
        // The writer swallows the tail silently — exactly a kill mid-write.
        std::io::Write::write_all(&mut writer, &encoded).unwrap();
        let surviving = writer.into_inner();
        assert_eq!(surviving.len(), limit);

        let mut scanner = RecordScanner::new(&surviving);
        let recovered: Vec<Vec<u8>> = scanner.by_ref().map(<[u8]>::to_vec).collect();
        let whole = ends.iter().filter(|&&end| end > 0 && end <= limit).count();
        assert_eq!(recovered.len(), whole, "wrong record count at limit {limit}");
        assert_eq!(recovered, payloads[..whole], "wrong payloads at limit {limit}");
        assert_eq!(scanner.clean_len(), ends[whole], "wrong clean prefix at limit {limit}");
        assert_eq!(scanner.torn(), limit != ends[whole], "wrong tear flag at limit {limit}");
    }
}

/// Epoch pinning across snapshot compaction: a held `StateView` stays
/// byte-frozen and its epoch readable through repeated snapshot+GC
/// cycles; the moment it drops, GC reclaims the horizon.
#[test]
fn pinned_epoch_survives_repeated_compactions_byte_frozen() {
    let key = SecretKey::from_label(1);
    let dir = scratch_dir("recovery-pins");
    let options = DurableOptions { snapshot_every: 2, history: 0, ..Default::default() };
    let mut store =
        ChainStore::open(StoreConfig::durable(genesis(&key), &dir).durable_options(options)).unwrap();

    let pinned = store.head_state_view();
    assert_eq!(pinned.pinned_epoch(), Some(0));
    let frozen_root = pinned.state_root();
    let frozen_balance = pinned.balance_of(&key.address());

    for nonce in 0..8 {
        let block = extend(&store, vec![transfer(&key, nonce)], (nonce + 1) * 15_000);
        store.import(block).unwrap();
        // Four snapshot+GC cycles run in this loop; the pin must hold the
        // genesis epoch readable and byte-identical through every one.
        assert_eq!(store.retained_floor(), 0, "pinned genesis must block the floor");
        assert_eq!(pinned.state_root(), frozen_root, "held view mutated at height {}", nonce + 1);
        assert_eq!(pinned.balance_of(&key.address()), frozen_balance);
        assert!(store.state_view_at(0).is_some(), "pinned epoch must stay readable");
    }

    drop(pinned);
    let block = extend(&store, vec![transfer(&key, 8)], 9 * 15_000);
    store.import(block).unwrap();
    let block = extend(&store, vec![transfer(&key, 9)], 10 * 15_000);
    store.import(block).unwrap(); // snapshot at 10 with nothing pinned
    assert_eq!(store.retained_floor(), 10, "released pin lets GC catch up");
    assert!(store.state_view_at(0).is_none(), "released epoch is reclaimed");
    fs::remove_dir_all(&dir).unwrap();
}
