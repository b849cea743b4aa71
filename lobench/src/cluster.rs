//! Building the aggregated cluster and loading the graph, the untimed
//! warm-up, the post-drain audit and the redelivery probe.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use lambda_objects::{InvocationContext, ObjectId};
use lambda_retwis::{account_id, user_fields, user_module, USER_TYPE};
use lambda_store::{AggregatedCluster, AggregatedNode, StoreClient};
use lambda_vm::VmValue;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::check::{self, PostRecord, PostStatus, Timeline};
use crate::graph::Graph;
use crate::workload::Spec;

/// Calls in flight at once while loading, warming up and auditing.
const SETUP_INFLIGHT: u64 = 64;
/// Tag byte of warm-up posts.
const WARM_TAG: u8 = b'w';
/// Entries asked for when auditing a whole timeline.
const AUDIT_LIMIT: i64 = 1_000_000;

/// A loaded cluster plus everything the run knows about the posts it sent.
pub struct Bench {
    /// The aggregated cluster: 3 storage nodes, 3 coordinators, RF 3.
    pub cluster: AggregatedCluster,
    /// The follow graph the cluster holds.
    pub graph: Arc<Graph>,
    /// Every post sent, indexed by its sequence number.
    pub ledger: Arc<Mutex<Vec<PostRecord>>>,
    /// The shard's primary.
    pub primary: Arc<AggregatedNode>,
}

/// Counts outstanding async calls and lets the caller wait for room.
#[derive(Default)]
pub struct Inflight(AtomicU64);

impl Inflight {
    /// Block until fewer than `cap` calls are outstanding, then take a slot.
    pub fn acquire(&self, cap: u64) {
        while self.0.load(Ordering::Acquire) >= cap {
            std::thread::sleep(Duration::from_micros(200));
        }
        self.0.fetch_add(1, Ordering::AcqRel);
    }

    /// Return a slot.
    pub fn release(&self) {
        self.0.fetch_sub(1, Ordering::AcqRel);
    }

    /// Outstanding calls.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// Wait up to `limit` for every call to finish; true if they did.
    pub fn drain(&self, limit: Duration) -> bool {
        let end = Instant::now() + limit;
        while self.get() > 0 {
            if Instant::now() > end {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }
}

/// Build the cluster under `dir` and load `graph` into it: deploy the
/// bytecode `User` type, create every account from `threads` threads, then
/// send the follow edges asynchronously with bounded calls in flight.
///
/// # Panics
/// On any failed set-up call: a benchmark without its graph measures
/// nothing.
pub fn build(graph: &Arc<Graph>, dir: &Path, threads: usize) -> Bench {
    let mut config = lambda_bench::cluster_config();
    config.kv.sync_wal = true;
    config.base_dir = dir.to_path_buf();
    let cluster = AggregatedCluster::build(config).expect("cluster bootstrap");
    let client = cluster.client();
    client.deploy_type(USER_TYPE, user_fields(), &user_module()).expect("deploy User type");
    std::thread::scope(|s| {
        for t in 0..threads {
            let client = &client;
            s.spawn(move || {
                for i in (t..graph.len()).step_by(threads) {
                    let name = format!("account {i}");
                    client
                        .create_object(
                            USER_TYPE,
                            &ObjectId::new(account_id(i)),
                            &[("name", name.as_bytes())],
                        )
                        .expect("create account");
                }
            });
        }
    });
    let inflight = Arc::new(Inflight::default());
    let errors = Arc::new(AtomicU64::new(0));
    for (follower, targets) in graph.followees.iter().enumerate() {
        for &target in targets {
            inflight.acquire(SETUP_INFLIGHT);
            let (inflight, errors) = (Arc::clone(&inflight), Arc::clone(&errors));
            client.invoke_async(
                &ObjectId::new(account_id(target)),
                "follow",
                vec![VmValue::Bytes(account_id(follower))],
                false,
                Box::new(move |r| {
                    if r.is_err() {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                    inflight.release();
                }),
            );
        }
    }
    assert!(inflight.drain(Duration::from_secs(60)), "follow calls never completed");
    assert_eq!(errors.load(Ordering::Relaxed), 0, "follow calls failed");
    client.shutdown();
    let primary = primary_of(&cluster);
    Bench { cluster, graph: Arc::clone(graph), ledger: Arc::default(), primary }
}

fn primary_of(cluster: &AggregatedCluster) -> Arc<AggregatedNode> {
    let client = cluster.client();
    let state = client.placement().snapshot();
    client.shutdown();
    let primary = state.shards.values().next().expect("one shard").primary;
    cluster
        .core
        .storage
        .iter()
        .find(|n| n.id() == primary)
        .cloned()
        .expect("primary is a storage node")
}

impl Bench {
    /// Register post `seq` by `author` as sent; returns its sequence number.
    pub fn register_post(&self, author: usize, tag: u8) -> u64 {
        let mut ledger = self.ledger.lock().expect("ledger lock");
        ledger.push(PostRecord { author, tag, status: PostStatus::Pending });
        ledger.len() as u64 - 1
    }

    /// Record the client-visible outcome of post `seq`.
    pub fn settle_post(ledger: &Mutex<Vec<PostRecord>>, seq: u64, ok: bool) {
        let status = if ok { PostStatus::Acked } else { PostStatus::Failed };
        ledger.lock().expect("ledger lock")[seq as usize].status = status;
    }

    /// Untimed warm-up: post `spec`-sized messages from uniform authors
    /// until the primary's data directory holds `spec.warm_bytes`. Returns
    /// the posts sent.
    pub fn warm_up(&self, spec: &Spec, seed: u64, client: &StoreClient) -> u64 {
        let dir = self.cluster.core.base_dir().join(format!("node-{}", self.primary.id().0));
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x7761_726d_0000_0000);
        let inflight = Arc::new(Inflight::default());
        let mut sent = 0u64;
        while crate::procfs::dir_bytes(&dir) < spec.warm_bytes {
            for _ in 0..32 {
                let author = rng.gen_range(0..self.graph.len());
                let seq = self.register_post(author, WARM_TAG);
                let msg = check::message(WARM_TAG, seq, spec.msg_bytes);
                inflight.acquire(16);
                let (inflight, ledger) = (Arc::clone(&inflight), Arc::clone(&self.ledger));
                client.invoke_async(
                    &ObjectId::new(account_id(author)),
                    "create_post",
                    vec![VmValue::str(msg)],
                    false,
                    Box::new(move |r| {
                        Bench::settle_post(&ledger, seq, r.is_ok());
                        inflight.release();
                    }),
                );
                sent += 1;
            }
        }
        assert!(inflight.drain(Duration::from_secs(30)), "warm-up posts never completed");
        sent
    }

    /// Read every account's whole timeline through a fresh client pinned to
    /// the primary with no edge cache.
    ///
    /// # Errors
    /// A read that failed.
    pub fn read_all_timelines(&self) -> Result<Vec<Timeline>, String> {
        let client = self.cluster.client();
        client.pin_reads_to_primary(true);
        let slots: Arc<Mutex<Vec<Result<Timeline, String>>>> =
            Arc::new(Mutex::new(vec![Err("never answered".into()); self.graph.len()]));
        let inflight = Arc::new(Inflight::default());
        for account in 0..self.graph.len() {
            inflight.acquire(SETUP_INFLIGHT);
            let (inflight, slots) = (Arc::clone(&inflight), Arc::clone(&slots));
            client.invoke_async(
                &ObjectId::new(account_id(account)),
                "get_timeline",
                vec![VmValue::Int(AUDIT_LIMIT)],
                true,
                Box::new(move |r| {
                    slots.lock().expect("audit lock")[account] = match r {
                        Ok(v) => Ok(entries(&v)),
                        Err(e) => Err(format!("audit read of {account} failed: {e}")),
                    };
                    inflight.release();
                }),
            );
        }
        inflight.drain(Duration::from_secs(30));
        client.shutdown();
        let slots = std::mem::take(&mut *slots.lock().expect("audit lock"));
        slots.into_iter().collect()
    }

    /// The redelivery probe: on `k` fresh author/follower pairs, send one
    /// `create_post` per author through `invoke_ctx`, redeliver it with the
    /// same context (`attempt + 1`), and count the authors whose post count
    /// shows the redelivery executed again.
    ///
    /// # Errors
    /// A probe call that failed.
    pub fn redelivery_probe(&self, k: usize) -> Result<u64, String> {
        let client = self.cluster.client();
        client.pin_reads_to_primary(true);
        let probe = |i: usize| ObjectId::new(format!("probe/{i:06}").into_bytes());
        let fail = |what: &str, e: lambda_objects::InvokeError| format!("probe {what}: {e}");
        for i in 0..2 * k {
            client
                .create_object(USER_TYPE, &probe(i), &[("name", b"probe")])
                .map_err(|e| fail("create", e))?;
        }
        let mut reexec = 0;
        for i in 0..k {
            let (author, follower) = (probe(2 * i), probe(2 * i + 1));
            client
                .invoke(&author, "follow", vec![VmValue::Bytes(follower.0.clone())], false)
                .map_err(|e| fail("follow", e))?;
            let mut ctx = InvocationContext::client(Duration::from_secs(5));
            ctx.invocation_id = lambda_telemetry::next_invocation_id();
            let args = vec![VmValue::str(format!("probe post {i}"))];
            client
                .invoke_ctx(&ctx, &author, "create_post", args.clone(), false)
                .map_err(|e| fail("post", e))?;
            ctx.attempt += 1;
            client
                .invoke_ctx(&ctx, &author, "create_post", args, false)
                .map_err(|e| fail("redeliver", e))?;
            let posts =
                client.invoke(&author, "post_count", vec![], true).map_err(|e| fail("count", e))?;
            reexec += posts.as_int().unwrap_or(0).saturating_sub(1) as u64;
        }
        client.shutdown();
        Ok(reexec)
    }
}

/// The byte entries of a `get_timeline` result.
pub fn entries(v: &VmValue) -> Timeline {
    v.as_list()
        .unwrap_or_default()
        .iter()
        .map(|e| e.as_bytes().map(<[u8]>::to_vec).unwrap_or_default())
        .collect()
}
