//! The world state: accounts, balances, contract storage — with a journal
//! so failed transactions can be rolled back while remaining in the block
//! (the paper's §III-A: "the transaction is included in the block, but has
//! no effect on the system state").

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;
use sereth_crypto::address::Address;
use sereth_crypto::hash::H256;
use sereth_crypto::merkle::{merkle_root, parent_node};
use sereth_crypto::rlp::RlpStream;
use sereth_store::EpochGuard;
use sereth_types::u256::U256;
use sereth_vm::access::AccessKey;
use sereth_vm::exec::{ContractCode, Storage};

/// One account: an externally-owned account or a contract.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Account {
    /// Number of transactions sent from this account.
    pub nonce: u64,
    /// Balance in wei.
    pub balance: U256,
    /// Executable code, if any.
    pub code: ContractCode,
    /// Contract storage; zero-valued slots are kept absent so the state
    /// commitment is canonical.
    pub storage: BTreeMap<H256, H256>,
}

impl Account {
    /// Commitment to this account's storage.
    pub fn storage_root(&self) -> H256 {
        let leaves: Vec<H256> = self
            .storage
            .iter()
            .map(|(key, value)| {
                let encoded = RlpStream::new_list(2)
                    .append_bytes(key.as_bytes())
                    .append_bytes(value.as_bytes())
                    .finish();
                H256::keccak(&encoded)
            })
            .collect();
        merkle_root(&leaves)
    }

    /// Commitment to the whole account.
    pub fn account_hash(&self, address: &Address) -> H256 {
        let encoded = RlpStream::new_list(5)
            .append_bytes(address.as_bytes())
            .append_u64(self.nonce)
            .append_bytes(&self.balance.to_be_bytes())
            .append_bytes(self.code.code_hash().as_bytes())
            .append_bytes(self.storage_root().as_bytes())
            .finish();
        H256::keccak(&encoded)
    }
}

/// Reverting information for one state mutation.
#[derive(Debug, Clone)]
enum JournalEntry {
    StorageChanged { address: Address, key: H256, prev: H256 },
    BalanceChanged { address: Address, prev: U256 },
    NonceChanged { address: Address, prev: u64 },
    CodeChanged { address: Address, prev: ContractCode },
    AccountCreated { address: Address },
}

/// A snapshot handle returned by [`StateDb::snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Snapshot(usize);

/// The persistent account map both [`StateDb`] and [`StateView`] hang off:
/// an `Arc` over the map, `Arc` per account. Sharing either level is O(1);
/// mutation clones lazily (the map of pointers on the first write after a
/// share, one account on the first write to it).
type Accounts = BTreeMap<Address, Arc<Account>>;

/// One account whose `Arc` differs between two maps, as yielded by
/// [`changed_accounts`]. `None` on a side: the address is absent there.
struct Changed<'a> {
    address: &'a Address,
    /// Index of `address` in the `after` map (for an address only in
    /// `before`: the index the next `after` entry has).
    position: usize,
    before: Option<&'a Arc<Account>>,
    after: Option<&'a Arc<Account>>,
}

/// Walks two account maps in lockstep, in address order, and yields every
/// address whose account is not the same `Arc` on both sides. Shared
/// `Arc`s are skipped without looking inside: an account reachable from
/// two maps is immutable (every write goes through `Arc::make_mut`). The
/// walk is O(accounts) pointer steps; only changed accounts cost more.
fn changed_accounts<'a>(before: &'a Accounts, after: &'a Accounts) -> impl Iterator<Item = Changed<'a>> {
    let (mut left, mut right) = (before.iter().peekable(), after.iter().peekable());
    let mut position = 0;
    std::iter::from_fn(move || loop {
        let order = match (left.peek(), right.peek()) {
            (Some((l, _)), Some((r, _))) => l.cmp(r),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => return None,
        };
        let at = position;
        let (address, before, after) = match order {
            Ordering::Less => {
                let (address, account) = left.next()?;
                (address, Some(account), None)
            }
            Ordering::Greater => {
                let (address, account) = right.next()?;
                position += 1;
                (address, None, Some(account))
            }
            Ordering::Equal => {
                let ((address, l), (_, r)) = (left.next()?, right.next()?);
                position += 1;
                if Arc::ptr_eq(l, r) {
                    continue;
                }
                (address, Some(l), Some(r))
            }
        };
        return Some(Changed { address, position: at, before, after });
    })
}

/// Tree levels below this one are not cached: a level-`CACHED_LEVEL` node
/// is re-derived from its [`CHUNK`] accounts whenever one of them changes.
/// Two levels trade 4 account hashes per changed account for a cache of
/// about half a hash per account.
const CACHED_LEVEL: u32 = 2;

/// Accounts under one lowest cached node.
const CHUNK: usize = 1 << CACHED_LEVEL;

/// The Merkle root over the hashes of up to [`CHUNK`] consecutive
/// accounts: one node of the lowest cached level.
fn chunk_node<'a>(accounts: impl Iterator<Item = (&'a Address, &'a Arc<Account>)>) -> H256 {
    let mut level = [H256::ZERO; CHUNK];
    let mut len = 0;
    for (address, account) in accounts {
        level[len] = account.account_hash(address);
        len += 1;
    }
    merkle_root(&level[..len])
}

/// The positional account tree of one account map, from
/// [`CACHED_LEVEL`] up to the root. The tree is exactly the one
/// `merkle_root` builds over every account hash in address order, so a
/// cached root is byte-identical to a from-scratch one.
///
/// `accounts` is held strongly, which is what makes the cache COW-safe:
/// every account `Arc` it shares with a live map has a second owner and
/// is therefore never written in place, so pointer equality between the
/// two maps proves an account unchanged.
#[derive(Debug)]
struct RootCache {
    accounts: Arc<Accounts>,
    /// `levels[0]` has one node per [`CHUNK`] accounts, each next level
    /// half as many, the last only the root. Empty for an empty map.
    levels: Vec<Vec<H256>>,
}

impl RootCache {
    /// The tree of `accounts` from scratch: O(accounts) hashes.
    fn build(accounts: &Arc<Accounts>) -> Self {
        let mut entries = accounts.iter();
        let mut nodes = Vec::with_capacity(accounts.len().div_ceil(CHUNK));
        while entries.len() > 0 {
            nodes.push(chunk_node(entries.by_ref().take(CHUNK)));
        }
        let mut levels = Vec::new();
        if !nodes.is_empty() {
            levels.push(nodes);
        }
        while let Some(top) = levels.last().filter(|top| top.len() > 1) {
            let above = top.chunks(2).map(parent_node).collect();
            levels.push(above);
        }
        Self { accounts: Arc::clone(accounts), levels }
    }

    fn root(&self) -> H256 {
        self.levels.last().map_or_else(sereth_crypto::merkle::empty_root, |top| top[0])
    }

    /// The tree of `accounts`, a later version of this cache's map. When
    /// no account was inserted or deleted, positions are unchanged and
    /// only the chunks holding a changed account and their paths to the
    /// root are rehashed; otherwise the tree is rebuilt.
    fn advance(&self, accounts: &Arc<Accounts>) -> Self {
        // (chunk, one changed address in it, that address's offset in it)
        let mut dirty: Vec<(usize, &Address, usize)> = Vec::new();
        for change in changed_accounts(&self.accounts, accounts) {
            if change.before.is_none() || change.after.is_none() {
                return Self::build(accounts);
            }
            let chunk = change.position / CHUNK;
            if dirty.last().is_none_or(|&(last, ..)| last != chunk) {
                dirty.push((chunk, change.address, change.position % CHUNK));
            }
        }
        let mut levels = self.levels.clone();
        for &(chunk, address, offset) in &dirty {
            let mut members: Vec<(&Address, &Arc<Account>)> =
                accounts.range(..*address).rev().take(offset).collect();
            members.reverse();
            members.extend(accounts.range(*address..).take(CHUNK - offset));
            levels[0][chunk] = chunk_node(members.into_iter());
        }
        let mut touched: Vec<usize> = dirty.iter().map(|&(chunk, ..)| chunk).collect();
        for level in 1..levels.len() {
            touched.iter_mut().for_each(|index| *index /= 2);
            touched.dedup();
            let (below, above) = levels.split_at_mut(level);
            let below = &below[level - 1];
            for &index in &touched {
                above[0][index] = parent_node(&below[2 * index..(2 * index + 2).min(below.len())]);
            }
        }
        Self { accounts: Arc::clone(accounts), levels }
    }
}

/// The state-root memo a [`StateDb`] or [`StateView`] carries: the
/// [`RootCache`] of the last map it was rooted at, which after a clone
/// and some writes is an ancestor of the current map. Cloning shares the
/// cache; a root call replaces it with the cache of the current map.
#[derive(Default)]
struct RootMemo(Mutex<Option<Arc<RootCache>>>);

impl RootMemo {
    /// The root of `accounts`, leaving the memo at `accounts`' tree.
    fn root_of(&self, accounts: &Arc<Accounts>) -> H256 {
        let mut memo = self.0.lock();
        let next = match memo.as_deref() {
            Some(cache) if Arc::ptr_eq(&cache.accounts, accounts) => return cache.root(),
            Some(cache) => cache.advance(accounts),
            None => RootCache::build(accounts),
        };
        let root = next.root();
        *memo = Some(Arc::new(next));
        root
    }

    /// A memo sharing this one's cache if it is the tree of `accounts`
    /// itself, empty otherwise: a view never keeps an older map alive.
    fn fresh_for(&self, accounts: &Arc<Accounts>) -> Self {
        let memo = self.0.lock();
        Self(Mutex::new(memo.clone().filter(|cache| Arc::ptr_eq(&cache.accounts, accounts))))
    }

    fn clear(&self) {
        *self.0.lock() = None;
    }
}

impl Clone for RootMemo {
    fn clone(&self) -> Self {
        Self(Mutex::new(self.0.lock().clone()))
    }
}

impl std::fmt::Debug for RootMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("RootMemo").field(&self.0.lock().as_ref().map(|cache| cache.root())).finish()
    }
}

/// The journaled world state.
///
/// All mutation goes through methods that append to the journal, so any
/// prefix of work can be undone with [`StateDb::revert_to`]. The journal is
/// cleared wholesale with [`StateDb::clear_journal`] once a block is sealed.
///
/// The account map is copy-on-write: [`StateDb::view`] (and `clone`) share
/// it in O(1), and the first mutation after a share unshares the map —
/// clones of pointers, not of accounts — then unshares single accounts as
/// they are touched. Held [`StateView`]s therefore stay frozen at the
/// moment they were taken, including across [`StateDb::revert_to`].
#[derive(Debug, Clone, Default)]
pub struct StateDb {
    accounts: Arc<Accounts>,
    journal: Vec<JournalEntry>,
    root: RootMemo,
}

/// An immutable, cheaply shareable snapshot of a [`StateDb`].
///
/// Taking one is O(1) (an `Arc` clone); it can outlive locks, cross
/// threads, and survive arbitrary mutation of the live state. This is what
/// every read-only consumer (node queries, miner pre-execution reads, sim
/// oracles) works against.
///
/// Views handed out by a `ChainStore` read surface additionally *pin*
/// their epoch (canonical height): garbage collection never prunes a
/// pinned epoch, in memory or on disk, so the view stays both byte-frozen
/// (copy-on-write guarantees that part) and re-servable until the last
/// clone drops. Views taken directly from a [`StateDb`] carry no pin.
#[derive(Debug, Clone, Default)]
pub struct StateView {
    accounts: Arc<Accounts>,
    pin: Option<EpochGuard>,
    root: RootMemo,
}

impl StateView {
    /// The epoch this view holds against garbage collection, when it was
    /// taken through an epoch-pinning read surface.
    pub fn pinned_epoch(&self) -> Option<u64> {
        self.pin.as_ref().map(EpochGuard::epoch)
    }

    /// Attaches an epoch pin (the `ChainStore` read path does this; the
    /// guard travels with every clone of the view).
    pub(crate) fn with_pin(mut self, pin: EpochGuard) -> Self {
        self.pin = Some(pin);
        self
    }
    /// Read-only view of an account, if it exists.
    pub fn account(&self, address: &Address) -> Option<&Account> {
        self.accounts.get(address).map(Arc::as_ref)
    }

    /// The account's nonce (0 if absent).
    pub fn nonce_of(&self, address: &Address) -> u64 {
        self.account(address).map_or(0, |a| a.nonce)
    }

    /// The account's balance (0 if absent).
    pub fn balance_of(&self, address: &Address) -> U256 {
        self.account(address).map_or(U256::ZERO, |a| a.balance)
    }

    /// The account's code (empty if absent).
    pub fn code_of(&self, address: &Address) -> ContractCode {
        self.account(address).map_or(ContractCode::None, |a| a.code.clone())
    }

    /// Reads a storage slot; absent slots read as zero.
    pub fn storage_get(&self, address: &Address, key: &H256) -> H256 {
        self.account(address).and_then(|account| account.storage.get(key)).copied().unwrap_or(H256::ZERO)
    }

    /// Number of accounts in the view.
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// `true` if no accounts exist.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    /// Deterministic commitment to the viewed state (same function as
    /// [`StateDb::state_root`]).
    pub fn state_root(&self) -> H256 {
        self.root.root_of(&self.accounts)
    }

    /// Iterates accounts in address order.
    pub fn iter(&self) -> impl Iterator<Item = (&Address, &Account)> {
        self.accounts.iter().map(|(address, account)| (address, account.as_ref()))
    }

    /// `true` if both views share the same underlying account map.
    pub fn ptr_eq(&self, other: &StateView) -> bool {
        Arc::ptr_eq(&self.accounts, &other.accounts)
    }

    /// Every [`AccessKey`] whose value differs between `self` and `other`
    /// — the dirty-key set a cross-block pipeline uses to decide which
    /// speculations against a *predicted* state survive against the state
    /// that actually materialized.
    ///
    /// Exploits the copy-on-write sharing: accounts whose `Arc`s are
    /// still shared between the two views are skipped without comparison,
    /// so diffing a prediction that mostly held costs only the touched
    /// accounts. An account present on one side only diffs against the
    /// absent-account defaults (nonce 0, zero balance, no code, empty
    /// storage) — matching how every reader treats missing accounts.
    pub fn diff_access_keys(&self, other: &StateView) -> HashSet<AccessKey> {
        fn diff_account(dirty: &mut HashSet<AccessKey>, address: Address, a: &Account, b: &Account) {
            if a.nonce != b.nonce {
                dirty.insert(AccessKey::Nonce(address));
            }
            if a.balance != b.balance {
                dirty.insert(AccessKey::Balance(address));
            }
            if a.code != b.code {
                dirty.insert(AccessKey::Code(address));
            }
            for key in a.storage.keys().chain(b.storage.keys()) {
                if a.storage.get(key).copied().unwrap_or(H256::ZERO)
                    != b.storage.get(key).copied().unwrap_or(H256::ZERO)
                {
                    dirty.insert(AccessKey::Slot(address, *key));
                }
            }
        }
        let absent = Account::default();
        let mut dirty = HashSet::new();
        for change in changed_accounts(&self.accounts, &other.accounts) {
            let before = change.before.map_or(&absent, |account| account);
            let after = change.after.map_or(&absent, |account| account);
            diff_account(&mut dirty, *change.address, before, after);
        }
        dirty
    }

    /// Account-granular diff: the post-image in `other` of every account
    /// whose content differs from `self`, address-ordered (`None` = the
    /// account is absent in `other` — a tombstone). This is the write-set
    /// the durable journal records per block, taken as
    /// `parent_view.diff_accounts(&child_view)`.
    ///
    /// Like [`StateView::diff_access_keys`], accounts whose `Arc`s are
    /// still shared are skipped without comparison, so the diff costs only
    /// the accounts a block actually touched.
    pub fn diff_accounts(&self, other: &StateView) -> Vec<(Address, Option<Account>)> {
        changed_accounts(&self.accounts, &other.accounts)
            .filter_map(|change| match (change.before, change.after) {
                (Some(before), Some(after)) if before == after => None,
                (_, after) => Some((*change.address, after.map(|account| Account::clone(account)))),
            })
            .collect()
    }
}

impl sereth_vm::exec::ReadStorage for StateView {
    fn storage_get(&self, address: &Address, key: &H256) -> H256 {
        StateView::storage_get(self, address, key)
    }

    fn code_get(&self, address: &Address) -> ContractCode {
        self.code_of(address)
    }

    fn balance_get(&self, address: &Address) -> U256 {
        self.balance_of(address)
    }
}

impl StateDb {
    /// An empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes an immutable O(1) snapshot of the current accounts. The view
    /// is unaffected by any later mutation of `self` (writes unshare).
    pub fn view(&self) -> StateView {
        StateView {
            accounts: Arc::clone(&self.accounts),
            pin: None,
            root: self.root.fresh_for(&self.accounts),
        }
    }

    /// A structurally independent copy: every account duplicated, nothing
    /// shared with `self`. This is the old `clone` semantics — O(state
    /// size) — kept as the baseline for the RAA-STATE benchmark and as the
    /// eager oracle in the view-equivalence property suite.
    pub fn deep_clone(&self) -> StateDb {
        let accounts: Accounts = self
            .accounts
            .iter()
            .map(|(address, account)| (*address, Arc::new(Account::clone(account))))
            .collect();
        StateDb { accounts: Arc::new(accounts), journal: self.journal.clone(), root: RootMemo::default() }
    }

    /// Rebuilds a state wholesale from recovered account images — the
    /// durable store's snapshot-restore path. The journal starts empty.
    pub(crate) fn from_accounts(accounts: impl IntoIterator<Item = (Address, Account)>) -> Self {
        let accounts: Accounts =
            accounts.into_iter().map(|(address, account)| (address, Arc::new(account))).collect();
        Self { accounts: Arc::new(accounts), journal: Vec::new(), root: RootMemo::default() }
    }

    /// Installs (or, on `None`, deletes) an account post-image without
    /// journaling — recovery replay only, where write-sets are applied
    /// wholesale and rollback never happens. Copy-on-write still applies:
    /// views taken before the call stay frozen.
    pub(crate) fn replace_account(&mut self, address: Address, account: Option<Account>) {
        match account {
            Some(account) => {
                self.accounts_mut().insert(address, Arc::new(account));
            }
            None => {
                self.accounts_mut().remove(&address);
            }
        }
    }

    /// The mutable account map, unsharing it first if any view or clone
    /// still holds the previous version. An unshare copies every pointer
    /// of the map (milliseconds at 10^5 accounts), so hot paths must not
    /// hold a second owner across writes.
    fn accounts_mut(&mut self) -> &mut Accounts {
        #[cfg(test)]
        if Arc::strong_count(&self.accounts) > 1 {
            unshares::UNSHARES.with(|count| count.set(count.get() + 1));
        }
        Arc::make_mut(&mut self.accounts)
    }

    /// Mutable access to an existing account (unshares map and account).
    fn account_mut(&mut self, address: &Address) -> &mut Account {
        let account = self.accounts_mut().get_mut(address).expect("journaled account exists");
        Arc::make_mut(account)
    }

    /// Read-only view of an account, if it exists.
    pub fn account(&self, address: &Address) -> Option<&Account> {
        self.accounts.get(address).map(Arc::as_ref)
    }

    /// The account's nonce (0 if absent).
    pub fn nonce_of(&self, address: &Address) -> u64 {
        self.accounts.get(address).map_or(0, |a| a.nonce)
    }

    /// The account's balance (0 if absent).
    pub fn balance_of(&self, address: &Address) -> U256 {
        self.accounts.get(address).map_or(U256::ZERO, |a| a.balance)
    }

    /// The account's code (empty if absent).
    pub fn code_of(&self, address: &Address) -> ContractCode {
        self.accounts.get(address).map_or(ContractCode::None, |a| a.code.clone())
    }

    /// Number of accounts in the state.
    pub fn len(&self) -> usize {
        self.accounts.len()
    }

    /// `true` if no accounts exist.
    pub fn is_empty(&self) -> bool {
        self.accounts.is_empty()
    }

    fn ensure_account(&mut self, address: &Address) -> &mut Account {
        if !self.accounts.contains_key(address) {
            self.journal.push(JournalEntry::AccountCreated { address: *address });
            self.accounts_mut().insert(*address, Arc::new(Account::default()));
        }
        self.account_mut(address)
    }

    /// Sets the balance, journaled.
    pub fn set_balance(&mut self, address: &Address, balance: U256) {
        let prev = self.balance_of(address);
        let account = self.ensure_account(address);
        account.balance = balance;
        self.journal.push(JournalEntry::BalanceChanged { address: *address, prev });
    }

    /// Adds to the balance, journaled.
    pub fn credit(&mut self, address: &Address, amount: U256) {
        let next = self.balance_of(address) + amount;
        self.set_balance(address, next);
    }

    /// Subtracts from the balance, journaled.
    ///
    /// Returns `false` (and changes nothing) when funds are insufficient.
    pub fn debit(&mut self, address: &Address, amount: U256) -> bool {
        let current = self.balance_of(address);
        match current.checked_sub(amount) {
            Some(next) => {
                self.set_balance(address, next);
                true
            }
            None => false,
        }
    }

    /// Sets the nonce, journaled.
    pub fn set_nonce(&mut self, address: &Address, nonce: u64) {
        let prev = self.nonce_of(address);
        let account = self.ensure_account(address);
        account.nonce = nonce;
        self.journal.push(JournalEntry::NonceChanged { address: *address, prev });
    }

    /// Installs contract code, journaled.
    pub fn set_code(&mut self, address: &Address, code: ContractCode) {
        let prev = self.code_of(address);
        let account = self.ensure_account(address);
        account.code = code;
        self.journal.push(JournalEntry::CodeChanged { address: *address, prev });
    }

    /// Takes a snapshot to which the state can later be reverted.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot(self.journal.len())
    }

    /// Undoes every mutation recorded after `snapshot`.
    pub fn revert_to(&mut self, snapshot: Snapshot) {
        while self.journal.len() > snapshot.0 {
            match self.journal.pop().expect("length checked") {
                JournalEntry::StorageChanged { address, key, prev } => {
                    let account = self.account_mut(&address);
                    if prev.is_zero() {
                        account.storage.remove(&key);
                    } else {
                        account.storage.insert(key, prev);
                    }
                }
                JournalEntry::BalanceChanged { address, prev } => {
                    self.account_mut(&address).balance = prev;
                }
                JournalEntry::NonceChanged { address, prev } => {
                    self.account_mut(&address).nonce = prev;
                }
                JournalEntry::CodeChanged { address, prev } => {
                    self.account_mut(&address).code = prev;
                }
                JournalEntry::AccountCreated { address } => {
                    self.accounts_mut().remove(&address);
                }
            }
        }
    }

    /// Drops the journal; prior snapshots become unusable. Call after a
    /// block is sealed. The journal's buffer is freed, not kept: a sealed
    /// state is retained per block, and the next block builds on a clone
    /// with a journal of its own.
    pub fn clear_journal(&mut self) {
        self.journal = Vec::new();
    }

    /// The [`AccessKey`]s of every mutation
    /// journaled at or after `checkpoint` — the exact write set of
    /// whatever executed since. The parallel executor's merge loop uses
    /// this to keep validating speculations after a sequential fallback
    /// ran directly against the live state (account creations carry no
    /// key of their own: a default account reads identically to an absent
    /// one, and any surviving field write is journaled separately).
    pub fn journal_writes_since(
        &self,
        checkpoint: usize,
    ) -> impl Iterator<Item = sereth_vm::access::AccessKey> + '_ {
        use sereth_vm::access::AccessKey;
        self.journal[checkpoint.min(self.journal.len())..].iter().filter_map(|entry| match entry {
            JournalEntry::StorageChanged { address, key, .. } => Some(AccessKey::Slot(*address, *key)),
            JournalEntry::BalanceChanged { address, .. } => Some(AccessKey::Balance(*address)),
            JournalEntry::NonceChanged { address, .. } => Some(AccessKey::Nonce(*address)),
            JournalEntry::CodeChanged { address, .. } => Some(AccessKey::Code(*address)),
            JournalEntry::AccountCreated { .. } => None,
        })
    }

    /// Deterministic commitment to the entire state: a Merkle root over the
    /// sorted account hashes (see `DESIGN.md` §7 for the trie substitution
    /// and the cache). Incremental: a state cloned from one whose root was
    /// taken rehashes only the paths of the accounts changed since.
    pub fn state_root(&self) -> H256 {
        self.root.root_of(&self.accounts)
    }

    /// Drops the cached tree behind [`StateDb::state_root`]; the next call
    /// (on this state or on a clone taken after this) rebuilds it. Stores
    /// call this on states nothing will be built on any more, so only the
    /// head keeps a tree.
    pub(crate) fn drop_root_cache(&self) {
        self.root.clear();
    }

    /// `true` while a cached tree backs [`StateDb::state_root`].
    #[cfg(test)]
    pub(crate) fn has_root_cache(&self) -> bool {
        self.root.0.lock().is_some()
    }

    /// Iterates accounts in address order.
    pub fn iter(&self) -> impl Iterator<Item = (&Address, &Account)> {
        self.accounts.iter().map(|(address, account)| (address, account.as_ref()))
    }
}

/// Test-only count of real account-map unshares, per thread (block
/// execution writes from the calling thread; wave workers only read).
#[cfg(test)]
pub(crate) mod unshares {
    use std::cell::Cell;

    thread_local! {
        pub(super) static UNSHARES: Cell<u64> = const { Cell::new(0) };
    }

    /// How many times `f` unshared an account map on this thread.
    pub(crate) fn during<T>(f: impl FnOnce() -> T) -> (T, u64) {
        let before = UNSHARES.with(Cell::get);
        let out = f();
        (out, UNSHARES.with(Cell::get) - before)
    }
}

impl Storage for StateDb {
    fn storage_get(&self, address: &Address, key: &H256) -> H256 {
        self.accounts.get(address).and_then(|account| account.storage.get(key)).copied().unwrap_or(H256::ZERO)
    }

    fn storage_set(&mut self, address: &Address, key: H256, value: H256) {
        let prev = self.storage_get(address, &key);
        if prev == value {
            return;
        }
        let account = self.ensure_account(address);
        if value.is_zero() {
            account.storage.remove(&key);
        } else {
            account.storage.insert(key, value);
        }
        self.journal.push(JournalEntry::StorageChanged { address: *address, key, prev });
    }

    fn code_get(&self, address: &Address) -> ContractCode {
        self.code_of(address)
    }

    fn balance_get(&self, address: &Address) -> U256 {
        self.balance_of(address)
    }

    fn transfer(&mut self, from: &Address, to: &Address, value: U256) -> bool {
        if value.is_zero() {
            return true;
        }
        if !self.debit(from, value) {
            return false;
        }
        self.credit(to, value);
        true
    }

    fn checkpoint(&self) -> usize {
        self.journal.len()
    }

    fn revert_checkpoint(&mut self, checkpoint: usize) {
        self.revert_to(Snapshot(checkpoint));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(n: u64) -> Address {
        Address::from_low_u64(n)
    }

    #[test]
    fn balances_default_to_zero() {
        let state = StateDb::new();
        assert_eq!(state.balance_of(&addr(1)), U256::ZERO);
        assert_eq!(state.nonce_of(&addr(1)), 0);
    }

    #[test]
    fn credit_and_debit() {
        let mut state = StateDb::new();
        state.credit(&addr(1), U256::from(100u64));
        assert!(state.debit(&addr(1), U256::from(30u64)));
        assert_eq!(state.balance_of(&addr(1)), U256::from(70u64));
        assert!(!state.debit(&addr(1), U256::from(1000u64)));
        assert_eq!(state.balance_of(&addr(1)), U256::from(70u64));
    }

    #[test]
    fn revert_restores_everything() {
        let mut state = StateDb::new();
        state.credit(&addr(1), U256::from(10u64));
        state.clear_journal();
        let root_before = state.state_root();

        let snapshot = state.snapshot();
        state.credit(&addr(1), U256::from(5u64));
        state.set_nonce(&addr(1), 3);
        state.storage_set(&addr(2), H256::from_low_u64(1), H256::from_low_u64(9));
        state.set_code(&addr(3), ContractCode::Bytecode(bytes::Bytes::from_static(&[0x00])));
        assert_ne!(state.state_root(), root_before);

        state.revert_to(snapshot);
        assert_eq!(state.state_root(), root_before);
        assert_eq!(state.balance_of(&addr(1)), U256::from(10u64));
        assert_eq!(state.nonce_of(&addr(1)), 0);
        assert!(state.account(&addr(2)).is_none(), "created account removed on revert");
        assert!(state.account(&addr(3)).is_none());
    }

    #[test]
    fn nested_snapshots_revert_in_order() {
        let mut state = StateDb::new();
        state.credit(&addr(1), U256::from(1u64));
        let outer = state.snapshot();
        state.credit(&addr(1), U256::from(1u64));
        let inner = state.snapshot();
        state.credit(&addr(1), U256::from(1u64));
        assert_eq!(state.balance_of(&addr(1)), U256::from(3u64));
        state.revert_to(inner);
        assert_eq!(state.balance_of(&addr(1)), U256::from(2u64));
        state.revert_to(outer);
        assert_eq!(state.balance_of(&addr(1)), U256::from(1u64));
    }

    #[test]
    fn zero_storage_writes_do_not_bloat_state() {
        let mut state = StateDb::new();
        state.storage_set(&addr(1), H256::from_low_u64(1), H256::from_low_u64(5));
        state.storage_set(&addr(1), H256::from_low_u64(1), H256::ZERO);
        assert_eq!(state.account(&addr(1)).unwrap().storage.len(), 0);
    }

    #[test]
    fn writing_same_value_is_a_noop_for_the_journal() {
        let mut state = StateDb::new();
        state.storage_set(&addr(1), H256::from_low_u64(1), H256::from_low_u64(5));
        let snapshot = state.snapshot();
        state.storage_set(&addr(1), H256::from_low_u64(1), H256::from_low_u64(5));
        state.revert_to(snapshot);
        assert_eq!(state.storage_get(&addr(1), &H256::from_low_u64(1)), H256::from_low_u64(5));
    }

    #[test]
    fn state_root_is_order_independent_but_content_sensitive() {
        let mut a = StateDb::new();
        a.credit(&addr(1), U256::from(1u64));
        a.credit(&addr(2), U256::from(2u64));
        let mut b = StateDb::new();
        b.credit(&addr(2), U256::from(2u64));
        b.credit(&addr(1), U256::from(1u64));
        assert_eq!(a.state_root(), b.state_root());

        b.credit(&addr(3), U256::from(3u64));
        assert_ne!(a.state_root(), b.state_root());
    }

    #[test]
    fn state_root_reflects_storage() {
        let mut state = StateDb::new();
        state.credit(&addr(1), U256::from(1u64));
        let before = state.state_root();
        state.storage_set(&addr(1), H256::from_low_u64(7), H256::from_low_u64(8));
        assert_ne!(state.state_root(), before);
    }

    #[test]
    fn views_freeze_at_the_moment_taken() {
        let mut state = StateDb::new();
        state.credit(&addr(1), U256::from(10u64));
        state.storage_set(&addr(2), H256::from_low_u64(1), H256::from_low_u64(5));
        state.clear_journal();

        let view = state.view();
        let frozen_root = state.state_root();
        assert!(view.ptr_eq(&state.view()), "no mutation yet: the map is shared");

        // Every kind of mutation after the view was taken…
        state.credit(&addr(1), U256::from(90u64));
        state.set_nonce(&addr(1), 7);
        state.storage_set(&addr(2), H256::from_low_u64(1), H256::from_low_u64(6));
        state.set_code(&addr(3), ContractCode::Bytecode(bytes::Bytes::from_static(&[0x01])));
        state.clear_journal();

        // …leaves the view byte-identical to the moment of capture.
        assert_eq!(view.state_root(), frozen_root);
        assert_eq!(view.balance_of(&addr(1)), U256::from(10u64));
        assert_eq!(view.nonce_of(&addr(1)), 0);
        assert_eq!(view.storage_get(&addr(2), &H256::from_low_u64(1)), H256::from_low_u64(5));
        assert!(view.account(&addr(3)).is_none());
        assert!(!view.ptr_eq(&state.view()), "the write unshared the map");
        // The live state moved on.
        assert_eq!(state.balance_of(&addr(1)), U256::from(100u64));
    }

    #[test]
    fn views_survive_revert_across_the_cow_boundary() {
        let mut state = StateDb::new();
        state.credit(&addr(1), U256::from(10u64));
        state.clear_journal();

        let snapshot = state.snapshot();
        state.credit(&addr(1), U256::from(5u64));
        state.storage_set(&addr(2), H256::from_low_u64(1), H256::from_low_u64(9));

        // View taken mid-journal, before the revert.
        let view = state.view();
        assert_eq!(view.balance_of(&addr(1)), U256::from(15u64));

        // The revert happens on the live state only: it COWs away from the
        // view instead of mutating through it.
        state.revert_to(snapshot);
        assert_eq!(state.balance_of(&addr(1)), U256::from(10u64));
        assert!(state.account(&addr(2)).is_none());
        assert_eq!(view.balance_of(&addr(1)), U256::from(15u64));
        assert_eq!(view.storage_get(&addr(2), &H256::from_low_u64(1)), H256::from_low_u64(9));
    }

    #[test]
    fn clones_share_until_either_side_writes() {
        let mut a = StateDb::new();
        a.credit(&addr(1), U256::from(10u64));
        a.clear_journal();
        let mut b = a.clone();
        assert!(a.view().ptr_eq(&b.view()));

        // Writing the clone leaves the original untouched, and vice versa.
        b.credit(&addr(1), U256::from(1u64));
        assert_eq!(a.balance_of(&addr(1)), U256::from(10u64));
        a.set_nonce(&addr(1), 3);
        assert_eq!(b.nonce_of(&addr(1)), 0);
        assert_eq!(b.balance_of(&addr(1)), U256::from(11u64));
    }

    #[test]
    fn deep_clone_shares_nothing() {
        let mut state = StateDb::new();
        state.credit(&addr(1), U256::from(10u64));
        state.clear_journal();
        let copy = state.deep_clone();
        assert!(!state.view().ptr_eq(&copy.view()));
        assert_eq!(copy.state_root(), state.state_root());
        assert_eq!(copy.balance_of(&addr(1)), U256::from(10u64));
    }

    #[test]
    fn storage_is_per_account() {
        let mut state = StateDb::new();
        state.storage_set(&addr(1), H256::from_low_u64(1), H256::from_low_u64(5));
        assert_eq!(state.storage_get(&addr(2), &H256::from_low_u64(1)), H256::ZERO);
    }

    #[test]
    fn diff_access_keys_finds_exactly_the_changed_keys() {
        let mut a = StateDb::new();
        a.credit(&addr(1), U256::from(10u64));
        a.credit(&addr(2), U256::from(10u64));
        a.storage_set(&addr(2), H256::from_low_u64(1), H256::from_low_u64(5));
        a.storage_set(&addr(2), H256::from_low_u64(2), H256::from_low_u64(6));
        a.clear_journal();
        let before = a.view();
        assert!(before.diff_access_keys(&before).is_empty());

        let mut b = a.clone();
        b.credit(&addr(1), U256::from(1u64)); // balance change
        b.set_nonce(&addr(2), 1); // nonce change, same-account slot change below
        b.storage_set(&addr(2), H256::from_low_u64(2), H256::from_low_u64(7));
        b.storage_set(&addr(2), H256::from_low_u64(3), H256::from_low_u64(8)); // new slot
        b.credit(&addr(3), U256::from(4u64)); // account only on one side
        b.clear_journal();
        let after = b.view();

        let dirty = before.diff_access_keys(&after);
        let expect: HashSet<AccessKey> = [
            AccessKey::Balance(addr(1)),
            AccessKey::Nonce(addr(2)),
            AccessKey::Slot(addr(2), H256::from_low_u64(2)),
            AccessKey::Slot(addr(2), H256::from_low_u64(3)),
            AccessKey::Balance(addr(3)),
        ]
        .into_iter()
        .collect();
        assert_eq!(dirty, expect);
        // Symmetric.
        assert_eq!(after.diff_access_keys(&before), expect);
        // Unshared-but-equal maps (deep clone) still diff to empty.
        assert!(a.deep_clone().view().diff_access_keys(&before).is_empty());
    }

    #[test]
    fn diff_accounts_yields_post_images_and_tombstones() {
        let mut a = StateDb::new();
        a.credit(&addr(1), U256::from(10u64));
        a.credit(&addr(2), U256::from(20u64));
        a.credit(&addr(4), U256::from(40u64));
        a.clear_journal();
        let before = a.view();
        assert!(before.diff_accounts(&before).is_empty());

        let mut b = a.clone();
        b.credit(&addr(2), U256::from(1u64)); // changed
        b.credit(&addr(3), U256::from(30u64)); // created
        b.clear_journal();
        // Delete addr(4) via the recovery-only path to exercise tombstones.
        b.replace_account(addr(4), None);
        let after = b.view();

        let writes = before.diff_accounts(&after);
        assert_eq!(
            writes.iter().map(|(address, post)| (*address, post.is_some())).collect::<Vec<_>>(),
            vec![(addr(2), true), (addr(3), true), (addr(4), false)],
            "address-ordered post-images with a tombstone for the deletion"
        );
        assert_eq!(writes[0].1.as_ref().unwrap().balance, U256::from(21u64));

        // Applying the write-set onto the old state reproduces the new one.
        let mut replayed = StateDb::from_accounts(before.iter().map(|(ad, acc)| (*ad, acc.clone())));
        for (address, post) in writes {
            replayed.replace_account(address, post);
        }
        assert_eq!(replayed.state_root(), after.state_root());
        // Unshared-but-equal maps (deep clone) still diff to empty.
        assert!(a.deep_clone().view().diff_accounts(&before).is_empty());
    }

    #[test]
    fn plain_statedb_views_carry_no_pin() {
        let state = StateDb::new();
        assert_eq!(state.view().pinned_epoch(), None);
    }

    /// The cache of `state`'s last root.
    fn cache_of(state: &StateDb) -> Arc<RootCache> {
        state.root.0.lock().clone().expect("rooted")
    }

    #[test]
    fn advanced_tree_equals_a_rebuilt_one_level_by_level() {
        let mut state = StateDb::new();
        for n in 0..37 {
            state.credit(&addr(n), U256::from(n + 1));
        }
        state.clear_journal();
        state.state_root();
        let parent = cache_of(&state);

        // Same shape: changed accounts in the first, a middle and the
        // last (short) chunk, through the journaled and recovery paths.
        let mut child = state.clone();
        child.credit(&addr(0), U256::from(1u64));
        child.storage_set(&addr(36), H256::from_low_u64(1), H256::from_low_u64(2));
        child.replace_account(addr(20), Some(Account { nonce: 9, ..Account::default() }));
        assert_eq!(parent.advance(&child.accounts).levels, RootCache::build(&child.accounts).levels);

        // An insert and a delete move positions: rebuilt.
        child.replace_account(addr(100), Some(Account::default()));
        child.replace_account(addr(3), None);
        assert_eq!(parent.advance(&child.accounts).levels, RootCache::build(&child.accounts).levels);
        assert_eq!(child.state_root(), child.deep_clone().state_root());
    }

    #[test]
    fn empty_and_tiny_states_root_like_the_plain_tree() {
        let mut state = StateDb::new();
        assert_eq!(state.state_root(), sereth_crypto::merkle::empty_root());
        state.credit(&addr(1), U256::from(1u64));
        assert_eq!(state.state_root(), state.account(&addr(1)).unwrap().account_hash(&addr(1)));
        let snapshot = state.snapshot();
        state.credit(&addr(2), U256::from(1u64));
        state.revert_to(snapshot);
        state.revert_to(Snapshot(0));
        assert_eq!(state.state_root(), sereth_crypto::merkle::empty_root());
    }

    #[test]
    fn views_share_only_a_tree_of_their_own_map() {
        let mut state = StateDb::new();
        state.credit(&addr(1), U256::from(1u64));
        state.clear_journal();
        let root = state.state_root();
        let fresh = state.view();
        assert!(Arc::ptr_eq(&cache_of(&state), &fresh.root.0.lock().clone().unwrap()));

        state.credit(&addr(1), U256::from(1u64));
        let stale = state.view();
        assert!(stale.root.0.lock().is_none(), "a view never holds an older map's tree");
        assert_ne!(stale.state_root(), root);
        assert_eq!(fresh.state_root(), root);
    }
}
