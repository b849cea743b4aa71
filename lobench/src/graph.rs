//! The seeded follow graph shared by every workload.

use lambda_retwis::Zipf;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Accounts in the graph.
pub const ACCOUNTS: usize = 1_000;
/// Distinct accounts each account follows.
pub const FOLLOWS: usize = 5;
/// Seed of the follow graph every workload and run uses. The graph is the
/// benchmark's dataset: `--seed` varies the arrivals and the accounts they
/// target, not the data they land on, so the spread between seeds is run
/// noise rather than a different hot-author fan-out per seed.
pub const GRAPH_SEED: u64 = 0x5eed_f011_0e55;
/// Skew of the followee choice.
const FOLLOW_THETA: f64 = 0.3;

/// Who follows whom. `followees[a]` are the accounts `a` follows (each
/// distinct, never `a`); `followers[t]` are the accounts that follow `t`,
/// which is where `t`'s posts fan out to.
#[derive(Debug, Clone)]
pub struct Graph {
    /// Accounts each account follows, in draw order.
    pub followees: Vec<Vec<usize>>,
    /// Accounts following each account, ascending.
    pub followers: Vec<Vec<usize>>,
}

impl Graph {
    /// Draw the graph for `seed`: every account follows [`FOLLOWS`]
    /// distinct other accounts, Zipf(θ=0.3)-distributed.
    pub fn generate(seed: u64) -> Graph {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x6772_6170_6800_0000);
        let zipf = Zipf::new(ACCOUNTS, FOLLOW_THETA);
        let followees = (0..ACCOUNTS)
            .map(|a| {
                let mut picked = Vec::with_capacity(FOLLOWS);
                while picked.len() < FOLLOWS {
                    let t = zipf.sample(&mut rng);
                    if t != a && !picked.contains(&t) {
                        picked.push(t);
                    }
                }
                picked
            })
            .collect();
        Graph::from_followees(followees)
    }

    /// Build the graph from explicit followee lists.
    pub fn from_followees(followees: Vec<Vec<usize>>) -> Graph {
        let mut followers = vec![Vec::new(); followees.len()];
        for (a, targets) in followees.iter().enumerate() {
            for &t in targets {
                followers[t].push(a);
            }
        }
        Graph { followees, followers }
    }

    /// Whether `reader` follows `author`.
    pub fn follows(&self, reader: usize, author: usize) -> bool {
        self.followees[reader].contains(&author)
    }

    /// Number of accounts.
    pub fn len(&self) -> usize {
        self.followees.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_graph_and_edges_are_distinct() {
        let a = Graph::generate(7);
        let b = Graph::generate(7);
        assert_eq!(a.followees, b.followees);
        assert_ne!(a.followees, Graph::generate(8).followees);
        for (i, f) in a.followees.iter().enumerate() {
            let mut d = f.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), FOLLOWS);
            assert!(!f.contains(&i));
        }
        let fanout: usize = a.followers.iter().map(Vec::len).sum();
        assert_eq!(fanout, ACCOUNTS * FOLLOWS);
    }
}
