//! In-process deployments in their production shape: generate SSB, build
//! the indexes on the pool, start `qppt-server` / shards / `qppt-router`
//! on loopback with `ServeObs` / `RouterObs` attached — exactly what the
//! `qppt-server` and `qppt-router` binaries do, minus the process boundary.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qppt_cache::QueryCache;
use qppt_core::PlanOptions;
use qppt_par::{prepare_indexes_pooled, WorkerPool};
use qppt_router::{serve_router, Router, RouterConfig, RouterObs};
use qppt_server::{
    detected_cores, serve, serve_lines, LineService, ServeEngine, ServeObs, ServerConfig,
    ServerHandle,
};
use qppt_ssb::{queries, SsbDb};
use qppt_storage::Database;

use crate::load::LineClient;
use crate::trace::{Recorder, TracedRouter, TracedServer, SERVER, SHARDS};
use crate::workloads::{named, warmup_lines, Kind, Scale, DB_SEED};

/// Threads of the shared worker pool.
pub const POOL_THREADS: usize = 2;
const ADMISSION: usize = 2 * POOL_THREADS;

/// Closed-loop client connections.
pub fn clients() -> usize {
    detected_cores().min(2)
}

/// The serving defaults of the `qppt-server` binary on this pool.
pub fn defaults() -> PlanOptions {
    PlanOptions::default()
        .with_parallelism(POOL_THREADS)
        .with_par_index_build(true)
}

/// What `write_refresh` mutates between engine rebuilds.
pub struct WriteState {
    pub db: Arc<Database>,
    pub cache: Arc<QueryCache>,
    pub obs: Arc<ServeObs>,
    pub sf: f64,
}

impl WriteState {
    /// A fresh engine over the current database and the *same* cache.
    pub fn engine(&self, pool: &Arc<WorkerPool>) -> ServeEngine {
        ServeEngine::over_db_with_cache(
            self.db.clone(),
            pool.clone(),
            defaults(),
            self.sf,
            DB_SEED,
            self.cache.clone(),
        )
        .with_obs(self.obs.clone())
    }
}

/// One running deployment of a workload.
pub struct Deployment {
    pub pool: Arc<WorkerPool>,
    /// The server, or the two shards (empty for `write_refresh`, which
    /// rebuilds its engine every cycle from `write`).
    pub engines: Vec<Arc<ServeEngine>>,
    pub write: Option<WriteState>,
    /// Where untraced clients connect.
    pub addr: Option<String>,
    /// The same engines behind the harness's span-recording services.
    pub traced_addr: Option<String>,
    listeners: Vec<ServerHandle>,
    pub sf: f64,
    pub generate_s: f64,
    pub index_build_s: f64,
}

struct BuiltDb {
    db: Arc<Database>,
    generate_s: f64,
    index_build_s: f64,
}

fn build_db(sf: f64, shard: usize, shards: usize, pool: &Arc<WorkerPool>) -> BuiltDb {
    let t0 = Instant::now();
    let mut ssb = SsbDb::generate_shard(sf, DB_SEED, shard, shards);
    let generate_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    for q in queries::all_queries() {
        prepare_indexes_pooled(&mut ssb.db, &q, &defaults(), pool).expect("SSB indexes build");
    }
    BuiltDb {
        db: Arc::new(ssb.db),
        generate_s,
        index_build_s: t1.elapsed().as_secs_f64(),
    }
}

fn listen(service: Arc<dyn LineService>) -> ServerHandle {
    serve_lines(service, "127.0.0.1:0", ServerConfig::default()).expect("loopback listener binds")
}

fn routed(addrs: Vec<String>) -> Arc<Router> {
    let mut config = RouterConfig::new(addrs);
    // The `--no-router-cache` deployment: every request really scatters.
    config.cache.enabled = false;
    let router = Arc::new(Router::new(config).with_obs(RouterObs::new(SHARDS.len(), None)));
    router
        .wait_for_shards(Duration::from_secs(30))
        .expect("in-process shards answer PING");
    router
}

impl Deployment {
    /// Brings `kind` up and warms it (one pass of the 13 named queries).
    /// With `rec`, every engine is *also* served through the
    /// span-recording harness services on a second set of listeners.
    /// Returns the deployment and the wall time of all of it — `setup_s`.
    pub fn start(kind: Kind, scale: &Scale, rec: Option<&Arc<Recorder>>) -> (Self, f64) {
        let t0 = Instant::now();
        let obs = ServeObs::new(None);
        let pool = WorkerPool::new_with_metrics(POOL_THREADS, ADMISSION, Some(obs.pool_metrics()));
        let mut dep = Deployment {
            pool: pool.clone(),
            engines: Vec::new(),
            write: None,
            addr: None,
            traced_addr: None,
            listeners: Vec::new(),
            sf: scale.sf_large,
            generate_s: 0.0,
            index_build_s: 0.0,
        };
        let node =
            |dep: &mut Deployment, sf: f64, shard: usize, shards: usize, obs: Arc<ServeObs>| {
                let built = build_db(sf, shard, shards, &pool);
                dep.generate_s += built.generate_s;
                dep.index_build_s += built.index_build_s;
                let engine = ServeEngine::over_db(built.db, pool.clone(), defaults(), sf, DB_SEED)
                    .with_shard_info(shard, shards)
                    .with_obs(obs);
                dep.engines.push(Arc::new(engine));
            };
        match kind {
            Kind::ServedCold | Kind::ServedAdhoc | Kind::ServedHit => {
                node(&mut dep, scale.sf_large, 0, 1, obs);
                let engine = dep.engines[0].clone();
                let plain = serve(engine.clone(), "127.0.0.1:0").expect("loopback server binds");
                dep.addr = Some(plain.addr().to_string());
                dep.listeners.push(plain);
                if let Some(rec) = rec {
                    let traced = listen(Arc::new(TracedServer {
                        engine,
                        rec: rec.clone(),
                        names: &SERVER,
                    }));
                    dep.traced_addr = Some(traced.addr().to_string());
                    dep.listeners.push(traced);
                }
            }
            Kind::RoutedScatter => {
                dep.sf = scale.sf_small;
                node(&mut dep, scale.sf_small, 0, SHARDS.len(), obs);
                for shard in 1..SHARDS.len() {
                    node(
                        &mut dep,
                        scale.sf_small,
                        shard,
                        SHARDS.len(),
                        ServeObs::new(None),
                    );
                }
                let mut shard_addrs = Vec::new();
                for engine in &dep.engines {
                    let h = serve(engine.clone(), "127.0.0.1:0").expect("loopback shard binds");
                    shard_addrs.push(h.addr().to_string());
                    dep.listeners.push(h);
                }
                let front = serve_router(routed(shard_addrs), "127.0.0.1:0")
                    .expect("loopback router binds");
                dep.addr = Some(front.addr().to_string());
                dep.listeners.push(front);
                if let Some(rec) = rec {
                    let mut traced_addrs = Vec::new();
                    for (engine, names) in dep.engines.iter().zip(&SHARDS) {
                        let h = listen(Arc::new(TracedServer {
                            engine: engine.clone(),
                            rec: rec.clone(),
                            names,
                        }));
                        traced_addrs.push(h.addr().to_string());
                        dep.listeners.push(h);
                    }
                    let front = listen(Arc::new(TracedRouter {
                        inner: routed(traced_addrs),
                        rec: rec.clone(),
                    }));
                    dep.traced_addr = Some(front.addr().to_string());
                    dep.listeners.push(front);
                }
            }
            Kind::WriteRefresh => {
                let built = build_db(scale.sf_large, 0, 1, &pool);
                dep.generate_s = built.generate_s;
                dep.index_build_s = built.index_build_s;
                dep.write = Some(WriteState {
                    db: built.db,
                    cache: Arc::new(QueryCache::default()),
                    obs,
                    sf: scale.sf_large,
                });
            }
        }
        dep.warm(kind);
        let setup_s = t0.elapsed().as_secs_f64();
        (dep, setup_s)
    }

    fn warm(&self, kind: Kind) {
        if let Some(w) = &self.write {
            let engine = w.engine(&self.pool);
            for name in named() {
                engine
                    .run(&name, &defaults(), 0)
                    .expect("warm-up query runs");
            }
            return;
        }
        for addr in [&self.addr, &self.traced_addr].into_iter().flatten() {
            let mut client = LineClient::connect(addr).expect("warm-up client connects");
            for line in warmup_lines(kind) {
                client.call(&line).expect("warm-up request succeeds");
            }
        }
    }

    /// The database of node 0 (the server, shard 0, or the write target).
    pub fn db(&self) -> &Arc<Database> {
        match &self.write {
            Some(w) => &w.db,
            None => self.engines[0].pooled().db(),
        }
    }

    /// Stops every listener (fronts first, so no router scatters into a
    /// closed shard), then the pool; returns once all threads have ended.
    pub fn stop(mut self) {
        while let Some(h) = self.listeners.pop() {
            h.stop();
        }
        self.engines.clear();
        self.pool.shutdown();
    }
}
