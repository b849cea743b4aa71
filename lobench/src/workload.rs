//! The named workloads and their seeded operation schedules.

use std::time::Duration;

use lambda_retwis::Zipf;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::graph::ACCOUNTS;

/// How targets (authors or readers) are drawn.
#[derive(Debug, Clone, Copy)]
pub enum Pick {
    /// Uniform over all accounts.
    Uniform,
    /// Zipf over all accounts with this θ (account 0 hottest).
    Zipf(f64),
}

/// How read-only calls are routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reads {
    /// Straight to the shard primary, no client-edge cache.
    Primary,
    /// Rotated across leased replicas, behind a client-edge cache of this
    /// many entries per endpoint.
    Leased { edge_entries: usize },
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Name on the command line.
    pub name: &'static str,
    /// Tag byte its messages carry.
    pub tag: u8,
    /// Offered operations per second (writes + reads).
    pub rate: f64,
    /// Share of operations that are `create_post`.
    pub write_share: f64,
    /// Message bytes per post.
    pub msg_bytes: usize,
    /// Author choice.
    pub authors: Pick,
    /// Reader choice.
    pub readers: Pick,
    /// Read routing.
    pub reads: Reads,
    /// Before the timed window, post (untimed) until the primary's data
    /// directory holds at least this many bytes (0 = no warm-up).
    pub warm_bytes: u64,
}

/// Entries each `get_timeline` asks for.
pub const READ_LIMIT: usize = 10;

/// Every workload the benchmark knows.
pub const SPECS: [Spec; 3] = [
    Spec {
        name: "post-fanout",
        tag: b'p',
        rate: 300.0,
        write_share: 0.5,
        msg_bytes: 16,
        authors: Pick::Uniform,
        readers: Pick::Uniform,
        reads: Reads::Primary,
        warm_bytes: 0,
    },
    Spec {
        name: "timeline-read",
        tag: b't',
        rate: 500.0,
        write_share: 0.1,
        msg_bytes: 16,
        authors: Pick::Zipf(0.99),
        readers: Pick::Zipf(0.99),
        reads: Reads::Leased { edge_entries: 64 },
        warm_bytes: 0,
    },
    Spec {
        name: "big-records",
        tag: b'b',
        rate: 60.0,
        write_share: 0.5,
        msg_bytes: 4096,
        authors: Pick::Uniform,
        readers: Pick::Uniform,
        reads: Reads::Primary,
        // Memtable (4 MiB) plus block cache (8 MiB).
        warm_bytes: 12 << 20,
    },
];

/// The workload named `name`.
pub fn spec(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// One scheduled operation.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// When it is due, from the window start.
    pub due: Duration,
    /// `create_post` (true) or `get_timeline` (false).
    pub write: bool,
    /// Author or reader account.
    pub account: usize,
}

/// The open-loop schedule of `spec` for one window of `seconds`: a Poisson
/// process conditioned on exactly `rate × seconds` arrivals (sorted uniform
/// instants), so every seed offers the same number of operations.
pub fn schedule(spec: &Spec, seed: u64, seconds: f64) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7363_6865_6400_0000);
    let n = (spec.rate * seconds).round() as usize;
    let mut dues: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * seconds).collect();
    dues.sort_by(f64::total_cmp);
    let authors = Picker::new(spec.authors);
    let readers = Picker::new(spec.readers);
    dues.into_iter()
        .map(|due| {
            let write = rng.gen::<f64>() < spec.write_share;
            let account = if write { authors.pick(&mut rng) } else { readers.pick(&mut rng) };
            Op { due: Duration::from_secs_f64(due), write, account }
        })
        .collect()
}

/// Coprime to [`ACCOUNTS`], so `(rank * RANK_STRIDE + ACCOUNTS / 2) %
/// ACCOUNTS` permutes, and rank 0 lands on an account of average fan-out.
const RANK_STRIDE: usize = 919;

/// Draws accounts by a [`Pick`].
pub struct Picker(Option<Zipf>);

impl Picker {
    /// A picker for `pick`.
    pub fn new(pick: Pick) -> Picker {
        Picker(match pick {
            Pick::Uniform => None,
            Pick::Zipf(theta) => Some(Zipf::new(ACCOUNTS, theta)),
        })
    }

    /// One account. Zipf ranks are scattered over the accounts by a fixed
    /// permutation, so the hottest author or reader is not also the most
    /// followed account (the follow graph's own Zipf puts that at 0).
    pub fn pick(&self, rng: &mut SmallRng) -> usize {
        match &self.0 {
            Some(z) => (z.sample(rng) * RANK_STRIDE + ACCOUNTS / 2) % ACCOUNTS,
            None => rng.gen_range(0..ACCOUNTS),
        }
    }
}
