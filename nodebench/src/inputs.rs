//! Workload definitions and the seeded input stream.
//!
//! Everything a workload submits — account keys, set prices, buyers,
//! transfer senders, recipients, amounts and gas prices — is drawn here
//! from the `--seed` argument alone, so one seed always yields the same
//! inputs. The node under test only ever sees the generated transactions.

use sereth_crypto::hash::H256;
use sereth_crypto::sig::SecretKey;

/// The three workloads of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's market mix at 10³ accounts; every block drains the pool.
    Market,
    /// The same mix over a pool held near `pool_depth` transactions, with
    /// a second driver thread issuing read-uncommitted reads.
    MarketDeep,
    /// Conflict-free transfers from distinct senders over 10⁵ accounts.
    TransferWide,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Market, Workload::MarketDeep, Workload::TransferWide];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Market => "market",
            Workload::MarketDeep => "market_deep",
            Workload::TransferWide => "transfer_wide",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|workload| workload.name() == name)
    }

    /// The full-size specification the benchmark runs.
    pub fn spec(self) -> Spec {
        match self {
            Workload::Market => Spec {
                workload: self,
                accounts: 1_000,
                round: PAPER_MIX,
                pool_depth: None,
                warmup_rounds: 20,
            },
            Workload::MarketDeep => Spec {
                workload: self,
                accounts: 1_000,
                round: PAPER_MIX,
                pool_depth: Some(2_000),
                // The latency mix settles ~50 blocks after the first fill.
                warmup_rounds: 80,
            },
            Workload::TransferWide => Spec {
                workload: self,
                accounts: 100_000,
                round: Mix { sets: 0, buys: 0, transfers: 256 },
                pool_depth: None,
                warmup_rounds: 1,
            },
        }
    }
}

/// The paper's §V block: 16 owner `set`s, 96 `buy`s and 32 transfers.
pub const PAPER_MIX: Mix = Mix { sets: 16, buys: 96, transfers: 32 };

/// Read-uncommitted reads per submitted transaction that `market_deep`'s
/// reader thread was sized for: about 8.
pub const READS_PER_TX: usize = 8;

/// How many of each operation one round of the input stream holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Owner `set`s (price changes).
    pub sets: usize,
    /// Buyer `buy`s, each built from one read-uncommitted read.
    pub buys: usize,
    /// Plain value transfers.
    pub transfers: usize,
}

impl Mix {
    /// Operations per round.
    pub fn len(&self) -> usize {
        self.sets + self.buys + self.transfers
    }

    /// `true` for a round with no operations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The sizes of one workload. Tests shrink `accounts` and `pool_depth`;
/// the benchmark runs [`Workload::spec`] unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Which workload this is.
    pub workload: Workload,
    /// Funded accounts (buyers and transfer parties).
    pub accounts: usize,
    /// The operation mix of one round.
    pub round: Mix,
    /// `Some(depth)`: before each block the writer tops the pool up to
    /// `depth` pending transactions instead of submitting one round.
    pub pool_depth: Option<usize>,
    /// Rounds run before the timed window (after the pool is filled).
    pub warmup_rounds: usize,
}

impl Spec {
    /// `true` when the workload drives the Sereth contract.
    pub fn uses_contract(&self) -> bool {
        self.round.sets + self.round.buys > 0
    }

    /// Read-uncommitted reads the writer makes at the start of each round,
    /// while no transaction is pending, on a workload without buys:
    /// [`READS_PER_TX`] per transaction of the round, 2,048 on
    /// `transfer_wide`.
    pub fn idle_reads(&self) -> usize {
        if self.round.buys > 0 {
            0
        } else {
            self.round.len() * READS_PER_TX
        }
    }

    /// Driver threads: the writer, plus a reader on `market_deep`.
    pub fn driver_threads(&self) -> usize {
        if self.pool_depth.is_some() {
            2
        } else {
            1
        }
    }
}

/// One client operation, before it is signed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// The owner sets the price to `value`.
    Set { value: u64 },
    /// Account `buyer` reads the market and buys at what it saw.
    Buy { buyer: usize, gas_price: u64 },
    /// Account `from` sends `amount` wei to account `to`.
    Transfer { from: usize, to: usize, amount: u64, gas_price: u64 },
}

/// SplitMix64: a small, fully specified generator, so the input stream
/// depends on nothing but the seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a stream label.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The account keys of a workload: `accounts` funded keys plus the
/// market owner's, all derived from the seed.
pub fn account_keys(seed: u64, accounts: usize) -> (SecretKey, Vec<SecretKey>) {
    let key = |index: u64| {
        let mut material = [0u8; 24];
        material[..8].copy_from_slice(&seed.to_be_bytes());
        material[8..16].copy_from_slice(&index.to_be_bytes());
        material[16..].copy_from_slice(b"nodebnch");
        SecretKey::from_seed(H256::keccak(&material))
    };
    let owner = key(u64::MAX);
    (owner, (0..accounts as u64).map(key).collect())
}

/// The seeded operation stream of one workload, produced a round at a
/// time and consumed one operation at a time.
#[derive(Debug, Clone)]
pub struct OpStream {
    spec: Spec,
    rng: Rng,
    /// Transfer senders on `transfer_wide` walk this permutation, so the
    /// senders of one block are distinct.
    senders: Vec<usize>,
    cursor: usize,
    round: std::vec::IntoIter<Op>,
}

impl OpStream {
    /// The stream for `spec` under `seed`.
    pub fn new(spec: Spec, seed: u64) -> Self {
        let mut rng = Rng::new(seed, 1);
        let mut senders = Vec::new();
        if !spec.uses_contract() {
            senders = (0..spec.accounts).collect();
            rng.shuffle(&mut senders);
        }
        Self { spec, rng, senders, cursor: 0, round: Vec::new().into_iter() }
    }

    /// The next operation.
    pub fn next_op(&mut self) -> Op {
        loop {
            if let Some(op) = self.round.next() {
                return op;
            }
            self.round = self.next_round().into_iter();
        }
    }

    fn next_round(&mut self) -> Vec<Op> {
        let Mix { sets, buys, transfers } = self.spec.round;
        let accounts = self.spec.accounts;
        let rng = &mut self.rng;
        let mut ops = Vec::with_capacity(sets + buys + transfers);
        for _ in 0..sets {
            ops.push(Op::Set { value: 1 + rng.below(1_000_000) as u64 });
        }
        for _ in 0..buys {
            ops.push(Op::Buy { buyer: rng.below(accounts), gas_price: 1 + rng.below(8) as u64 });
        }
        for _ in 0..transfers {
            let (from, to) = if self.senders.is_empty() {
                (rng.below(accounts), rng.below(accounts))
            } else {
                // Recipients sit half the permutation away from their
                // senders: within a block every account is touched once.
                let n = self.senders.len();
                let pair = (self.senders[self.cursor], self.senders[(self.cursor + n / 2) % n]);
                self.cursor = (self.cursor + 1) % n;
                pair
            };
            ops.push(Op::Transfer {
                from,
                to,
                amount: 1 + rng.below(1_000) as u64,
                gas_price: 1 + rng.below(8) as u64,
            });
        }
        rng.shuffle(&mut ops);
        ops
    }
}
