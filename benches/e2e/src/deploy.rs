//! A deployment under test — delta builder, hot-swappable handle, serving
//! runtime — and its set-up.
//!
//! Every knob is pinned here, never taken from a `Default`, so a changed
//! default in the library cannot silently change what is measured.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use amcad_mnn::IndexBackend;
use amcad_retrieval::{
    EngineHandle, IndexBuildConfig, IndexBuildInputs, IndexDelta, Request, RetrievalConfig,
    RetrievalEngine, RetrievalError, Retrieve, RuntimeConfig, ServingRuntime, ShardedDeltaBuilder,
    ShardedEngine, ShardedEngineBuilder,
};

use crate::corpus::{Corpus, Scale};
use crate::requests;

pub const TOP_K: usize = 20;
/// Threads of the system under test: the box has two cores.
pub const THREADS: usize = 2;
pub const INDEX: IndexBuildConfig = IndexBuildConfig {
    top_k: TOP_K,
    threads: THREADS,
    backend: IndexBackend::Exact,
};
pub const RETRIEVAL: RetrievalConfig = RetrievalConfig {
    expansion_per_index: 5,
    ads_per_key: 10,
    final_top_n: 20,
};
/// Queue depth and deadline are set far above what the workloads need:
/// on the reference box the machine itself stalls for tens of
/// milliseconds every few seconds, and a request delayed by such a stall
/// should count against the latency metrics, not be shed and fail the run.
pub const RUNTIME: RuntimeConfig = RuntimeConfig {
    workers: THREADS,
    queue_depth: 4096,
    deadline: Duration::from_millis(500),
    batch_size: 8,
};
/// Each delta retires this share of the live ads and on-boards as many.
pub const DELTA_SHARE: f64 = 0.02;
/// Requests served untimed before anything is measured.
pub const WARMUP_REQUESTS: usize = 2_000;

/// Where the run writes its snapshots and traces (relative to the
/// repository root, the directory the benchmark is run from).
pub const OUT_DIR: &str = "benches/e2e/out";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    pub shards: usize,
    pub replicas: usize,
    /// Threads of one index build, and shards built at a time.
    pub builder_threads: usize,
}

impl Topology {
    /// One whole-corpus engine: requests are served by a plain
    /// `RetrievalEngine`, no fan-out, no gather.
    pub const SINGLE: Topology = Topology {
        shards: 1,
        replicas: 1,
        builder_threads: THREADS,
    };
    pub const SHARDED: Topology = Topology {
        shards: 4,
        replicas: 2,
        builder_threads: THREADS,
    };
    /// The sharded topology for a deployment that publishes deltas while
    /// it serves: the builder keeps to one thread, so that one of the two
    /// cores stays with the readers. With two builder threads the read
    /// latency under churn is the kernel's time slice (1–5 ms measured)
    /// and does not repeat from run to run.
    pub const SHARDED_BESIDE_READS: Topology = Topology {
        builder_threads: 1,
        ..Topology::SHARDED
    };

    pub fn is_single(&self) -> bool {
        self.shards == 1
    }

    /// What the handle serves of a build or a delta: on the single
    /// topology the one shard's engine itself, so that no gather is ever
    /// on the request path.
    pub fn served(&self, sharded: ShardedEngine) -> Arc<dyn Retrieve> {
        if self.is_single() {
            Arc::clone(sharded.shard(0).engine_shared()) as Arc<dyn Retrieve>
        } else {
            Arc::new(sharded)
        }
    }

    /// Entries of a served response's `served_by` route: one per shard
    /// gathered, none from a plain engine.
    pub fn route_len(&self) -> usize {
        if self.is_single() {
            0
        } else {
            self.shards
        }
    }

    pub fn builder(&self) -> ShardedEngineBuilder {
        ShardedEngine::builder()
            .shards(self.shards)
            .replicas(self.replicas)
            .build_threads(self.shards.min(self.builder_threads))
            .fanout_threads(self.shards.min(THREADS))
            .index(IndexBuildConfig {
                threads: self.builder_threads,
                ..INDEX
            })
            .retrieval(RETRIEVAL)
    }
}

/// The whole-corpus single-node engine over `inputs`: what every
/// topology's rankings are checked against.
pub fn oracle(inputs: &IndexBuildInputs) -> Result<RetrievalEngine, RetrievalError> {
    RetrievalEngine::builder()
        .index(INDEX)
        .retrieval(RETRIEVAL)
        .build(inputs)
}

pub struct Deployment {
    pub topology: Topology,
    pub builder: ShardedDeltaBuilder,
    pub handle: Arc<EngineHandle>,
    pub runtime: ServingRuntime,
}

impl Deployment {
    /// Build the indices for `inputs` under `topology` and put a handle
    /// and a runtime in front of them. Returns the index build's share of
    /// the wall time next to the deployment.
    pub fn build(
        inputs: &IndexBuildInputs,
        topology: Topology,
    ) -> Result<(Deployment, f64), RetrievalError> {
        let started = Instant::now();
        let builder = ShardedDeltaBuilder::new(inputs, topology.builder())?;
        let build_s = started.elapsed().as_secs_f64();
        let handle = Arc::new(EngineHandle::from_arc(topology.served(builder.engine()?)));
        let runtime = ServingRuntime::new(Arc::clone(&handle) as Arc<dyn Retrieve>, RUNTIME)?;
        let deployment = Deployment {
            topology,
            builder,
            handle,
            runtime,
        };
        Ok((deployment, build_s))
    }
}

/// Everything a workload needs before its first measurement.
pub struct Setup {
    pub corpus: Corpus,
    pub pool: Vec<Request>,
    pub deltas: Vec<IndexDelta>,
    pub deployment: Deployment,
    /// The index build's share of the set-up time.
    pub build_s: f64,
}

/// Generate the inputs from `seed`, build the deployment and warm it up.
pub fn setup(
    seed: u64,
    scale: Scale,
    topology: Topology,
    deltas: usize,
) -> Result<Setup, RetrievalError> {
    let mut corpus = Corpus::generate(seed, scale);
    let pool = requests::pool(seed, scale);
    let (deployment, build_s) = Deployment::build(&corpus.inputs, topology)?;
    let deltas = (0..deltas)
        .map(|_| corpus.next_delta(DELTA_SHARE))
        .collect();
    for request in pool.iter().take(WARMUP_REQUESTS) {
        deployment.runtime.retrieve_blocking(request)?;
    }
    Ok(Setup {
        corpus,
        pool,
        deltas,
        deployment,
        build_s,
    })
}

/// A snapshot path of this process under [`OUT_DIR`] (created on demand).
pub fn out_path(file: &str) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(OUT_DIR)?;
    Ok(Path::new(OUT_DIR).join(file))
}
