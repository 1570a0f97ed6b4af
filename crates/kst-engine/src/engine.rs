//! The sharded serving engine: per-shard networks, per-shard request
//! queues, batched dispatch, and explicit cross-shard cost accounting.
//!
//! # Cost model
//!
//! The keyspace `1..=n` is partitioned into `S` contiguous shards by a
//! **versioned range table** ([`ShardMap`]); shard `s` runs one
//! independent [`Network`] over its local keyspace and a top-level
//! **router** stitches the shards together. A request `(u, v)` is
//! charged as follows:
//!
//! * **intra-shard** (`shard(u) == shard(v)`): exactly the shard net's
//!   [`Network::serve`] cost on the locally remapped endpoints — the same
//!   routing + rotations + link-changes a standalone net of that shard
//!   would report. No router involvement, nothing else charged.
//! * **cross-shard** (`shard(u) != shard(v)`): traffic flows
//!   `u → gateway(shard(u)) → router → gateway(shard(v)) → v`. The source
//!   shard serves `(u, g_u)` and the destination shard serves `(g_v, v)`
//!   (each skipped when the endpoint *is* the gateway), so both shards
//!   self-adjust toward their gateways exactly as they would toward any
//!   hot node; on top of those two local serve costs the **router**
//!   charges its own cost for the gateway pair.
//!
//! The router comes in two flavours ([`SpineMode`]):
//!
//! * [`SpineMode::Star`] (default): a flat star over the gateways — every
//!   cross-shard request costs a constant [`EngineConfig::router_hops`]
//!   routing hops (default 2: shard egress + ingress, the star's two
//!   edges). This is the degenerate spine configuration and reproduces
//!   the original fixed-router engine bit for bit.
//! * [`SpineMode::KSplay`]: a self-adjusting **router spine** — a k-splay
//!   network over the `S` gateway keys (shard `s` ↔ spine key `s + 1`).
//!   Hot shard pairs pull each other adjacent on the spine, so a skewed
//!   cross-shard working set converges toward 1 routing hop instead of
//!   the star's flat 2; the spine's routing/rotation costs are booked to
//!   the cross-shard account and its routing charge is reported as
//!   [`EngineReport::router_hops`].
//!
//! # Live resharding
//!
//! With [`ReshardConfig::enabled`] the partition itself becomes
//! demand-aware: the trace replays in epochs of [`ReshardConfig::epoch`]
//! requests, a decaying ledger ([`kst_workloads::DecayingDemand`])
//! accumulates cross-shard pair demand, and at every epoch boundary a
//! two-phase **plan/apply** rebalance runs on the dispatcher thread:
//!
//! 1. **Plan** — evaluate the `2(S − 1)` single-boundary shifts (each
//!    boundary, each direction, up to [`ReshardConfig::budget`] keys)
//!    against the smoothed demand: a shift's gain is the demand it heals
//!    (cross pairs made intra) minus the demand it breaks (intra pairs
//!    made cross), subject to a donor floor ([`ReshardConfig::min_shard`])
//!    and a receiver size cap ([`ReshardConfig::max_imbalance_pct`]).
//! 2. **Apply** — if the best gain clears [`ReshardConfig::min_gain`],
//!    splice the boundary run out of the donor shard's tree
//!    ([`kst_core::Reshardable`]), absorb the fragment into the
//!    neighbour, shift the [`ShardMap`] boundary and bump its version.
//!    The fragment keeps its learned subtree shape, so migrated hot keys
//!    stay hot-placed.
//!
//! Because shards are fully independent and the dispatcher enqueues
//! operations in trace order — and resharding runs between epochs, on
//! the dispatcher, from a thread-count-independent ledger — every shard
//! observes the *same* operation sequence no matter how many worker
//! threads drain the queues. The inline path and the workers serve that
//! sequence through the same per-shard step and book the router through
//! the same function, so the threaded run is bit-identical to the inline
//! one, with or without resharding, which the differential tests assert.

use crate::obs::{record_handoff, stamp, ObsMode, ObsReport};
use crate::shard::ShardMap;
use kst_core::{KSplayNet, Network, PatchStats, Reshardable, ServeCost, ShapeTree};
use kst_obs::{EventKind, Histogram, Stopwatch, Tracer};
use kst_sim::obs::ObsCollector;
use kst_sim::Metrics;
use kst_workloads::{DecayingDemand, KeyRange, NodeKey, Trace};
use std::sync::mpsc;

/// How many filled batches may queue per worker before the dispatcher
/// blocks (bounds engine memory regardless of trace length).
const QUEUE_DEPTH: usize = 4;

/// Topology of the top-level router over the shard gateways.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpineMode {
    /// Flat star: every cross-shard request is charged a constant
    /// [`EngineConfig::router_hops`]. The degenerate spine.
    #[default]
    Star,
    /// Self-adjusting k-splay network over the `S` gateway keys: hot
    /// shard pairs converge to adjacency, cold pairs pay the tree
    /// distance.
    KSplay {
        /// Arity of the spine tree (clamped to ≥ 2).
        k: usize,
    },
}

/// Live-resharding knobs. Disabled by default; enable with
/// [`ReshardConfig::on`] or `KSAN_RESHARD=on`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReshardConfig {
    /// Master switch. When off the partition is fixed for the whole run
    /// and the engine is bit-identical to the static-partition engine.
    pub enabled: bool,
    /// Requests per epoch: demand is folded and a migration considered
    /// at every epoch boundary.
    pub epoch: usize,
    /// Half-life (in epochs) of the decaying cross-shard demand ledger.
    pub half_life: u32,
    /// Maximum keys moved by one migration (one per epoch boundary).
    pub budget: usize,
    /// Minimum demand gain (healed minus broken pair weight) required to
    /// apply a migration.
    pub min_gain: u64,
    /// Donor shards always keep at least this many keys.
    pub min_shard: usize,
    /// Receiver-size cap as a percentage of the mean shard size `n / S`
    /// (e.g. 200 = a shard may grow to at most 2× the mean).
    pub max_imbalance_pct: u64,
}

impl Default for ReshardConfig {
    fn default() -> ReshardConfig {
        ReshardConfig {
            enabled: false,
            epoch: 4096,
            half_life: 4,
            budget: 256,
            min_gain: 1,
            min_shard: 8,
            max_imbalance_pct: 200,
        }
    }
}

impl ReshardConfig {
    /// The default knobs with the master switch on.
    pub fn on() -> ReshardConfig {
        ReshardConfig {
            enabled: true,
            ..ReshardConfig::default()
        }
    }
}

/// Engine tuning knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Number of keyspace shards `S` (clamped to `1..=n` at build time).
    pub shards: usize,
    /// Worker threads draining the shard queues. `1` (or one shard)
    /// serves inline — no threads, no channels, same totals.
    pub threads: usize,
    /// Dispatch batch size `B`: cross-thread handoff is amortized over
    /// `B` requests per channel send.
    pub batch: usize,
    /// Worker threads for **shard construction** (`ShardedEngine::new`).
    /// `1` (the default) builds shards sequentially in shard order —
    /// exactly the historical behaviour and transient-memory profile.
    /// Higher values build up to `build_threads` shards concurrently on
    /// scoped threads; shards are independent, so the resulting engine is
    /// bit-identical to a sequential build (a differential test pins
    /// this), but up to `build_threads` construction transients coexist.
    pub build_threads: usize,
    /// Routing hops charged per cross-shard request under
    /// [`SpineMode::Star`] (2 = shard egress + ingress). Ignored by a
    /// k-splay spine, which charges its own serve cost instead.
    pub router_hops: u64,
    /// Router topology over the shard gateways.
    pub spine: SpineMode,
    /// Live-resharding knobs (off by default).
    pub reshard: ReshardConfig,
    /// What to record while serving (histograms/timelines; see
    /// [`ObsMode`]). Off by default — the serve path then carries no
    /// observability overhead at all.
    pub obs: ObsMode,
    /// Span-ring capacity per tracer when observability is on (events
    /// kept per shard / dispatcher / worker timeline).
    pub obs_events: usize,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            shards: 1,
            threads: kst_sim::par::default_threads(),
            batch: 1024,
            build_threads: 1,
            router_hops: 2,
            spine: SpineMode::Star,
            reshard: ReshardConfig::default(),
            obs: ObsMode::Off,
            obs_events: 4096,
        }
    }
}

impl EngineConfig {
    /// Reads overrides from the environment: `KSAN_SHARDS`,
    /// `KSAN_THREADS`, `KSAN_BATCH`, `KSAN_BUILD_THREADS`,
    /// `KSAN_OBS` (`off`/`det`/`wall`),
    /// `KSAN_OBS_EVENTS`, `KSAN_SPINE` (`star`/`ksplay`), `KSAN_SPINE_K`,
    /// `KSAN_RESHARD` (`on`/`off`), `KSAN_RESHARD_EPOCH`,
    /// `KSAN_RESHARD_BUDGET`, and `KSAN_RESHARD_IMBALANCE` (the percent
    /// of the mean shard size a receiver may grow to).
    pub fn from_env() -> EngineConfig {
        let mut cfg = EngineConfig::default();
        let get = |k: &str| std::env::var(k).ok().and_then(|v| v.parse::<usize>().ok());
        if let Some(v) = get("KSAN_SHARDS") {
            cfg.shards = v.max(1);
        }
        if let Some(v) = get("KSAN_THREADS") {
            cfg.threads = v.max(1);
        }
        if let Some(v) = get("KSAN_BATCH") {
            cfg.batch = v.max(1);
        }
        if let Some(v) = get("KSAN_BUILD_THREADS") {
            cfg.build_threads = v.max(1);
        }
        match std::env::var("KSAN_SPINE").ok().as_deref() {
            Some("ksplay") => {
                cfg.spine = SpineMode::KSplay {
                    k: get("KSAN_SPINE_K").unwrap_or(2).max(2),
                };
            }
            Some("star") => cfg.spine = SpineMode::Star,
            _ => {}
        }
        if let Ok(v) = std::env::var("KSAN_RESHARD") {
            cfg.reshard.enabled = matches!(v.as_str(), "on" | "1" | "true");
        }
        if let Some(v) = get("KSAN_RESHARD_EPOCH") {
            cfg.reshard.epoch = v.max(1);
        }
        if let Some(v) = get("KSAN_RESHARD_BUDGET") {
            cfg.reshard.budget = v.max(1);
        }
        if let Some(v) = get("KSAN_RESHARD_IMBALANCE") {
            cfg.reshard.max_imbalance_pct = (v as u64).max(100);
        }
        if let Some(m) = std::env::var("KSAN_OBS")
            .ok()
            .and_then(|v| ObsMode::parse(&v))
        {
            cfg.obs = m;
        }
        if let Some(v) = get("KSAN_OBS_EVENTS") {
            cfg.obs_events = v;
        }
        cfg
    }

    /// Builder-style shard count override.
    pub fn with_shards(mut self, shards: usize) -> EngineConfig {
        self.shards = shards;
        self
    }

    /// Builder-style thread count override.
    pub fn with_threads(mut self, threads: usize) -> EngineConfig {
        self.threads = threads;
        self
    }

    /// Builder-style batch size override.
    pub fn with_batch(mut self, batch: usize) -> EngineConfig {
        self.batch = batch;
        self
    }

    /// Builder-style construction-thread override.
    pub fn with_build_threads(mut self, build_threads: usize) -> EngineConfig {
        self.build_threads = build_threads.max(1);
        self
    }

    /// Builder-style router-spine override.
    pub fn with_spine(mut self, spine: SpineMode) -> EngineConfig {
        self.spine = spine;
        self
    }

    /// Builder-style live-resharding override.
    pub fn with_reshard(mut self, reshard: ReshardConfig) -> EngineConfig {
        self.reshard = reshard;
        self
    }

    /// Builder-style observability mode override.
    pub fn with_obs(mut self, obs: ObsMode) -> EngineConfig {
        self.obs = obs;
        self
    }

    /// Builder-style span-ring capacity override.
    pub fn with_obs_events(mut self, events: usize) -> EngineConfig {
        self.obs_events = events;
        self
    }
}

/// What live resharding did during a run. All-zero when resharding is
/// off (or never fired), so reports stay comparable across configs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReshardReport {
    /// Applied migrations (at most one per epoch boundary).
    pub migrations: u64,
    /// Total keys moved across shard boundaries.
    pub keys_moved: u64,
    /// Total tree links rewired by the extract/absorb surgeries.
    pub links_changed: u64,
    /// Final [`ShardMap`] version (0 = the construction partition).
    pub map_version: u64,
}

impl ReshardReport {
    /// Merge for chunked runs: counters sum, the version keeps the
    /// latest value.
    pub fn merge(&mut self, other: &ReshardReport) {
        self.migrations += other.migrations;
        self.keys_moved += other.keys_moved;
        self.links_changed += other.links_changed;
        self.map_version = self.map_version.max(other.map_version);
    }
}

/// Mergeable result of an engine run. Per-shard partials are kept apart
/// from cross-shard traffic so the intra-shard totals can be compared
/// move-for-move against standalone per-shard networks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineReport {
    /// Intra-shard traffic metrics, one entry per shard. For a trace
    /// whose requests are all intra-shard this is *exactly* what a
    /// standalone net over that shard's keyspace would report for the
    /// shard's sub-sequence, move for move (the differential tests
    /// assert it); with cross-shard traffic present the gateway
    /// half-serves interleave with the shard's stream, so the partials
    /// remain exact per-shard accounts but no longer match an
    /// interference-free standalone run.
    pub per_shard: Vec<Metrics>,
    /// Cross-shard requests: `requests` counts whole cross-shard requests
    /// (not halves); costs are the two gateway half-serves plus the
    /// router's charge folded into `routing` (and, for a k-splay spine,
    /// its rotations/link-changes).
    pub cross: Metrics,
    /// Total routing charged by the router itself (already included in
    /// `cross.routing`, broken out so reports can separate "real"
    /// routing from the router surcharge). Star: `router_hops` per
    /// cross-shard request; k-splay spine: the spine's routing charges.
    pub router_hops: u64,
    /// What live resharding did (all-zero when off).
    pub reshard: ReshardReport,
    /// Observability surfaces recorded during the run (empty when
    /// [`EngineConfig::obs`] is off). Its equality compares only the
    /// deterministic histograms, so report equality keeps meaning
    /// "same costs, move for move" across thread/batch configs.
    pub obs: ObsReport,
}

impl EngineReport {
    /// An all-zero report for `shards` shards (the merge identity).
    pub fn new(shards: usize) -> EngineReport {
        EngineReport {
            per_shard: vec![Metrics::default(); shards],
            cross: Metrics::default(),
            router_hops: 0,
            reshard: ReshardReport::default(),
            obs: ObsReport::off(),
        }
    }

    /// Grand total across shards and the router — field-wise sum, so
    /// merging per-shard partials reduces to exactly the totals the
    /// standalone nets would report for intra-shard traffic.
    pub fn total(&self) -> Metrics {
        let mut m = Metrics::default();
        for s in &self.per_shard {
            m.merge(s);
        }
        m.merge(&self.cross);
        m
    }

    /// Fraction of requests that crossed shards.
    pub fn cross_fraction(&self) -> f64 {
        let total = self.total().requests;
        if total == 0 {
            0.0
        } else {
            self.cross.requests as f64 / total as f64
        }
    }

    /// Associative, commutative merge of two reports over the same shard
    /// layout (windowed / chunked runs reduce with this).
    pub fn merge(&mut self, other: &EngineReport) {
        assert_eq!(
            self.per_shard.len(),
            other.per_shard.len(),
            "cannot merge reports with different shard counts"
        );
        for (a, b) in self.per_shard.iter_mut().zip(&other.per_shard) {
            a.merge(b);
        }
        self.cross.merge(&other.cross);
        self.router_hops += other.router_hops;
        self.reshard.merge(&other.reshard);
        self.obs.merge(&other.obs);
    }
}

/// One queued shard operation. `half` distinguishes the gateway
/// half-serves of cross-shard requests (cost booked to the router's
/// cross-shard account) from whole intra-shard requests.
#[derive(Debug, Clone, Copy)]
struct Op {
    shard: u32,
    a: NodeKey,
    b: NodeKey,
    half: bool,
}

/// Routes one request through the shard map — the single decomposition
/// point shared by the sequential serve path and the threaded
/// dispatcher, so the [`ShardMap`] lookup and the gateway half-serve
/// rules live in exactly one place.
///
/// `emit(op)` fires once for an intra-shard request
/// (`half == false`, locally remapped endpoints) or up to twice for a
/// cross-shard one (`half == true`, each endpoint toward its own
/// gateway; an endpoint that *is* its gateway emits nothing). Returns
/// `Some((shard(u), shard(v)))` for cross-shard requests — the router's
/// job — and `None` for intra-shard ones. Allocation-free.
fn route_request(
    map: &ShardMap,
    u: NodeKey,
    v: NodeKey,
    mut emit: impl FnMut(Op),
) -> Option<(usize, usize)> {
    let local = |s: usize, a: NodeKey, b: NodeKey, half: bool| {
        let r = map.range(s);
        Op {
            shard: s as u32,
            a: r.to_local(a),
            b: r.to_local(b),
            half,
        }
    };
    let su = map.shard_of(u);
    let sv = map.shard_of(v);
    if su == sv {
        emit(local(su, u, v, false));
        return None;
    }
    let gu = map.gateway(su);
    if u != gu {
        emit(local(su, u, gu, true));
    }
    let gv = map.gateway(sv);
    if v != gv {
        emit(local(sv, gv, v, true));
    }
    Some((su, sv))
}

/// The engine's one per-shard step: serves `op` on its shard's net,
/// observes it when the shard has a collector (timed when the engine
/// carries a clock), and books it — a whole intra-shard request into the
/// shard's own account, a gateway half-serve into the cross-shard
/// account without counting a request. The inline path and every worker
/// run this against the same per-shard op order, which is what makes
/// threaded costs and deterministic histograms bit-identical to inline
/// ones. Allocation-free.
fn shard_step<N: Network>(
    net: &mut N,
    col: Option<&mut ObsCollector>,
    clock: Option<Stopwatch>,
    op: Op,
    intra: &mut Metrics,
    cross: &mut Metrics,
) -> ServeCost {
    // Qualified observe calls so kst-analyze's name-based call graph
    // resolves them exactly.
    let c = match (col, clock) {
        (None, _) => net.serve(op.a, op.b),
        (Some(col), None) => {
            let c = net.serve(op.a, op.b);
            ObsCollector::observe(col, op.a, op.b, c);
            c
        }
        (Some(col), Some(origin)) => {
            let ts = origin.elapsed_us();
            let c = net.serve(op.a, op.b);
            let dur = origin.elapsed_us().saturating_sub(ts);
            ObsCollector::observe_timed(col, op.a, op.b, c, ts, dur);
            c
        }
    };
    if op.half {
        *cross += c;
    } else {
        intra.absorb(c);
    }
    c
}

/// The engine's one router booking for a cross-shard request: charges
/// the flat `star_hops` under the star, or a serve on the k-splay spine
/// (shard `s` ↔ spine key `s + 1`, self-adjusting toward hot shard
/// pairs), then counts one whole cross-shard request, adds the charge to
/// the cross-shard account and its routing to `router_hops`.
/// Allocation-free (the spine's scratch is pre-sized at construction).
fn book_router(
    spine: Option<&mut KSplayNet>,
    star_hops: u64,
    (su, sv): (usize, usize),
    cross: &mut Metrics,
    router_hops: &mut u64,
) -> ServeCost {
    let c = match spine {
        None => ServeCost {
            routing: star_hops,
            ..ServeCost::default()
        },
        Some(spine) => spine.serve((su + 1) as NodeKey, (sv + 1) as NodeKey),
    };
    cross.requests += 1;
    *cross += c;
    *router_hops += c.routing;
    c
}

/// The reshard surgery entry points of the concrete net type, captured
/// as plain function pointers so `ShardedEngine<N>` keeps working for
/// net types that are not [`Reshardable`] (the capability is attached by
/// [`ShardedEngine::with_resharding`], never demanded by the engine's
/// own bounds).
struct ReshardOps<N> {
    extract_low: fn(&mut N, usize) -> (ShapeTree, PatchStats),
    extract_high: fn(&mut N, usize) -> (ShapeTree, PatchStats),
    absorb_low: fn(&mut N, &ShapeTree) -> PatchStats,
    absorb_high: fn(&mut N, &ShapeTree) -> PatchStats,
}

impl<N> Clone for ReshardOps<N> {
    fn clone(&self) -> ReshardOps<N> {
        *self
    }
}

impl<N> Copy for ReshardOps<N> {}

/// Live-resharding state: the surgery ops plus the decaying cross-shard
/// demand ledger migrations are planned from.
struct ReshardState<N> {
    ops: ReshardOps<N>,
    demand: DecayingDemand,
}

/// A sharded serving engine: `S` independent shard networks plus the
/// top-level router spine, replaying traces either sequentially or on a
/// worker pool with batched per-shard queues, optionally rebalancing the
/// partition between epochs (live resharding).
pub struct ShardedEngine<N> {
    map: ShardMap,
    nets: Vec<N>,
    /// The self-adjusting router spine; `None` under [`SpineMode::Star`]
    /// (or with fewer than two shards), where the router is a constant
    /// charge instead of a network.
    spine: Option<KSplayNet>,
    /// Present iff [`ShardedEngine::with_resharding`] attached the
    /// surgery ops (the convenience constructors of reshardable net
    /// types do it automatically).
    reshard: Option<ReshardState<N>>,
    cfg: EngineConfig,
    /// Run-origin clock, present iff [`EngineConfig::obs`] is
    /// [`ObsMode::WallClock`]: every wall-clock timestamp an observed run
    /// stamps (span `ts`, rebuild pauses) is an offset from it, so all
    /// threads share one time base.
    clock: Option<Stopwatch>,
}

impl<N: Network> ShardedEngine<N> {
    /// Builds the engine over keyspace `1..=n`: the factory is called once
    /// per shard and must return a network over exactly the shard's local
    /// keyspace.
    ///
    /// Transient-memory contract: with the default
    /// [`EngineConfig::build_threads`]` = 1` shards are built sequentially
    /// in shard order, so at most **one** shard's construction transients
    /// exist at a time (the historical "never coexist" guarantee). With
    /// `build_threads = T > 1` shards are built on `T` scoped worker
    /// threads and up to `T` construction transients overlap — bounded
    /// overlap replaces "never coexist", trading a T-bounded transient-RSS
    /// bump for a near-linear construction speedup. Shards are
    /// independent, so the built engine is bit-identical either way.
    pub fn new(
        n: usize,
        cfg: EngineConfig,
        factory: impl Fn(usize, KeyRange) -> N + Sync,
    ) -> ShardedEngine<N>
    where
        N: Send,
    {
        let map = ShardMap::contiguous(n, cfg.shards);
        let shards = map.shards();
        let build = |s: usize| {
            let range = map.range(s);
            let net = factory(s, range);
            assert_eq!(
                net.len(),
                range.len(),
                "shard {s}: factory built a {}-node net for a {}-key range",
                net.len(),
                range.len()
            );
            net
        };
        let workers = cfg.build_threads.clamp(1, shards);
        let nets: Vec<N> = if workers <= 1 {
            (0..shards).map(build).collect()
        } else {
            // Static round-robin assignment (the [`deal`] layout): worker
            // `w` builds shards `w, w + T, w + 2T, …`. Shard sizes differ
            // by at most one key, so stealing buys nothing, and each
            // worker holding one in-flight build caps transient overlap
            // at `workers`.
            std::thread::scope(|scope| {
                let build = &build;
                let handles: Vec<_> = (0..workers)
                    .map(|w| scope.spawn(move || (w..shards).step_by(workers).map(build).collect()))
                    .collect();
                let built = handles.into_iter().map(|h| {
                    // ksan-allow: panic-surface a worker panic is a factory bug; re-raising it here preserves the factory's own diagnostic
                    h.join().expect("shard build worker panicked")
                });
                interleave(built.collect())
            })
        };
        let spine = match cfg.spine {
            SpineMode::KSplay { k } if map.shards() >= 2 => {
                Some(KSplayNet::balanced(k.max(2), map.shards()))
            }
            _ => None,
        };
        ShardedEngine {
            map,
            nets,
            spine,
            reshard: None,
            clock: (cfg.obs == ObsMode::WallClock).then(Stopwatch::start),
            cfg,
        }
    }

    /// The keyspace partition in use.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// The engine configuration in use.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Read access to the shard networks (tests, reporting).
    pub fn nets(&self) -> &[N] {
        &self.nets
    }

    /// Read access to the router spine (`None` under the star).
    pub fn spine(&self) -> Option<&KSplayNet> {
        self.spine.as_ref()
    }

    /// Serves one request on the calling thread, folding its cost into
    /// `report` (and into `report.obs`'s collectors, if it has any) and
    /// returning the request's combined [`ServeCost`] (cross-shard: both
    /// gateway half-serves plus the router's charge). Runs the same
    /// per-shard step and router booking as [`ShardedEngine::run_trace`].
    ///
    /// # Panics
    ///
    /// If an endpoint lies outside the keyspace `1..=n` or `u == v`.
    pub fn serve_one(&mut self, u: NodeKey, v: NodeKey, report: &mut EngineReport) -> ServeCost {
        let n = self.map.n();
        for key in [u, v] {
            assert!(
                key >= 1 && key as usize <= n,
                "key {key} outside keyspace 1..={n}"
            );
        }
        assert!(u != v, "self-request ({u}, {v}): endpoints must differ");
        self.serve_request(u, v, report)
    }

    /// [`ShardedEngine::serve_one`] without the endpoint checks, for
    /// requests a [`Trace`] has already validated.
    fn serve_request(&mut self, u: NodeKey, v: NodeKey, report: &mut EngineReport) -> ServeCost {
        let EngineReport {
            per_shard,
            cross,
            router_hops,
            obs,
            ..
        } = report;
        let (nets, clock) = (&mut self.nets, self.clock);
        let mut c = ServeCost::default();
        let routed = route_request(&self.map, u, v, |op| {
            let s = op.shard as usize;
            let (net, book) = (&mut nets[s], &mut per_shard[s]);
            c += shard_step(net, obs.per_shard.get_mut(s), clock, op, book, cross);
        });
        if let Some(pair) = routed {
            let spine = self.spine.as_mut();
            c += book_router(spine, self.cfg.router_hops, pair, cross, router_hops);
        }
        c
    }

    /// The epoch-boundary rebalance: folds the epoch's cross-shard
    /// demand into the decaying ledger, plans the best single boundary
    /// shift, and applies it by splicing the boundary run between the
    /// neighbouring shard trees. Runs between epochs on the dispatching
    /// thread (cold path — the serve path itself stays allocation-free);
    /// deterministic given the trace and config, independent of the
    /// worker/batch layout.
    fn reshard_boundary(&mut self, chunk: &[(NodeKey, NodeKey)], report: &mut EngineReport) {
        let Some(state) = self.reshard.as_mut() else {
            return;
        };
        let shards = self.map.shards();
        for &(u, v) in chunk {
            if self.map.shard_of(u) != self.map.shard_of(v) {
                state.demand.record(u, v);
            }
        }
        state.demand.decay_merge();
        let pairs = state.demand.pairs_sorted();
        let ops = state.ops;
        if report.obs.mode != ObsMode::Off {
            let mut load = vec![0u64; shards];
            for &(u, v, w) in &pairs {
                load[self.map.shard_of(u)] += w;
                load[self.map.shard_of(v)] += w;
            }
            let total: u64 = load.iter().sum();
            // Hottest shard's demand share over the uniform share,
            // ×100 — integer arithmetic, so the surface is
            // deterministic and part of report equality.
            let maxl = *load.iter().max().unwrap_or(&0);
            if let Some(pct) = (maxl * 100 * shards as u64).checked_div(total) {
                Histogram::record(&mut report.obs.imbalance, pct);
            }
        }
        if pairs.is_empty() {
            return;
        }
        let rc = self.cfg.reshard;
        let min_shard = rc.min_shard.max(1);
        // Plan: the best of the 2(S−1) single-boundary shifts. Positive
        // delta grows shard b with the low end of b+1; negative donates
        // b's high end to b+1. Ties keep the first candidate in loop
        // order (lowest boundary, grow-left before grow-right), so the
        // plan is deterministic.
        let mut best: Option<(i64, usize, isize)> = None;
        for b in 0..shards - 1 {
            for dir in [1isize, -1] {
                let (donor, receiver) = if dir > 0 { (b + 1, b) } else { (b, b + 1) };
                let donor_range = self.map.range(donor);
                let l = rc.budget.min(donor_range.len().saturating_sub(min_shard));
                if l == 0 {
                    continue;
                }
                let recv_len = self.map.range(receiver).len();
                if (recv_len + l) as u64 * 100 * shards as u64
                    > rc.max_imbalance_pct * self.map.n() as u64
                {
                    continue;
                }
                let (mlo, mhi) = if dir > 0 {
                    (donor_range.lo, donor_range.lo + l as NodeKey - 1)
                } else {
                    (donor_range.hi - l as NodeKey + 1, donor_range.hi)
                };
                let mut gain = 0i64;
                for &(u, v, w) in &pairs {
                    let mu = u >= mlo && u <= mhi;
                    let mv = v >= mlo && v <= mhi;
                    if mu == mv {
                        continue;
                    }
                    let other = if mu { v } else { u };
                    let so = self.map.shard_of(other);
                    if so == receiver {
                        gain += w as i64; // healed: the pair becomes intra-shard
                    } else if so == donor {
                        gain -= w as i64; // broken: the pair becomes cross-shard
                    }
                }
                if gain >= rc.min_gain.min(i64::MAX as u64) as i64
                    && best.is_none_or(|(bg, _, _)| gain > bg)
                {
                    best = Some((gain, b, dir * l as isize));
                }
            }
        }
        let Some((_gain, b, delta)) = best else {
            return;
        };
        let l = delta.unsigned_abs();
        // Apply: splice the boundary run out of the donor tree and hand
        // the fragment (learned shape intact) to the neighbour, then
        // shift the map boundary and bump its version.
        let links = if delta > 0 {
            let (frag, s1) = (ops.extract_low)(&mut self.nets[b + 1], l);
            let s2 = (ops.absorb_high)(&mut self.nets[b], &frag);
            s1.links_changed + s2.links_changed
        } else {
            let (frag, s1) = (ops.extract_high)(&mut self.nets[b], l);
            let s2 = (ops.absorb_low)(&mut self.nets[b + 1], &frag);
            s1.links_changed + s2.links_changed
        };
        self.map.shift_boundary(b, delta);
        // ksan-allow: panic-surface the post-shift validate is the migration applier's own integrity gate; a failure means corrupted state that must not serve
        let check = self.map.validate();
        // ksan-allow: panic-surface see above — corrupted partitions must stop the run
        check.expect("live resharding broke the keyspace partition");
        debug_assert_eq!(self.nets[b].len(), self.map.range(b).len());
        debug_assert_eq!(self.nets[b + 1].len(), self.map.range(b + 1).len());
        report.reshard.migrations += 1;
        report.reshard.keys_moved += l as u64;
        report.reshard.links_changed += links;
        report.reshard.map_version = self.map.version();
        if report.obs.mode != ObsMode::Off {
            Histogram::record(&mut report.obs.moved_keys, l as u64);
            Tracer::record(
                &mut report.obs.dispatcher,
                EventKind::Migration,
                b as u64,
                l as u64,
            );
        }
    }
}

impl<N: Network + Reshardable> ShardedEngine<N> {
    /// Attaches the live-resharding surgery ops (and a fresh demand
    /// ledger) to the engine. Required before running with
    /// [`ReshardConfig::enabled`]; an inert capability otherwise. The
    /// reshardable convenience constructors call this automatically.
    pub fn with_resharding(mut self) -> ShardedEngine<N> {
        self.reshard = Some(ReshardState {
            ops: ReshardOps {
                extract_low: N::extract_low,
                extract_high: N::extract_high,
                absorb_low: N::absorb_low,
                absorb_high: N::absorb_high,
            },
            demand: DecayingDemand::new(self.map.n(), self.cfg.reshard.half_life),
        });
        self
    }
}

impl<N: Network + Send> ShardedEngine<N> {
    /// Replays the trace into one report. With live resharding on, the
    /// trace is served in epochs of [`ReshardConfig::epoch`] requests,
    /// each followed by the epoch-boundary rebalance; otherwise the whole
    /// trace is one epoch. Each epoch is served inline on the calling
    /// thread when one worker (or one shard) would run anyway, and on
    /// `min(threads, shards)` workers with per-worker queues and batched
    /// dispatch otherwise. Both run the same per-shard step over the same
    /// per-shard op order, so totals are bit-identical across thread and
    /// batch configs — including under live resharding, whose epoch
    /// boundaries and migration decisions are fixed by the trace alone.
    pub fn run_trace(&mut self, trace: &Trace) -> EngineReport {
        assert_eq!(trace.n(), self.map.n(), "trace keyspace != engine keyspace");
        let shards = self.map.shards();
        let mut report = EngineReport::new(shards);
        report.obs = ObsReport::with_config(shards, self.cfg.obs, self.cfg.obs_events);
        let resharding = self.cfg.reshard.enabled && shards >= 2;
        assert!(
            !resharding || self.reshard.is_some(),
            "resharding is enabled but this engine has no reshard ops: \
             construct via a reshardable net (e.g. ShardedEngine::ksplay) \
             or call with_resharding()"
        );
        let epoch = if resharding {
            self.cfg.reshard.epoch.max(1)
        } else {
            trace.len().max(1)
        };
        let workers = self.cfg.threads.min(shards).max(1);
        for chunk in trace.requests().chunks(epoch) {
            if workers == 1 {
                for &(u, v) in chunk {
                    self.serve_request(u, v, &mut report);
                }
            } else {
                self.run_slice_threaded(chunk, workers, &mut report);
            }
            if resharding {
                self.reshard_boundary(chunk, &mut report);
            }
        }
        report
    }

    /// Serves one slice on `workers` scoped threads, writing into
    /// `report`. Shard `s` — its net, its intra-shard account and its
    /// collector — moves to worker `s % workers` for the slice and back
    /// after it. The dispatcher walks the slice in order, routes each
    /// request, appends the shard ops to per-worker batches (a full batch
    /// is one channel send) and books the router itself: FIFO channels
    /// and a single dispatcher preserve each shard's op order, and the
    /// spine's adjustment sequence is independent of the worker layout.
    fn run_slice_threaded(
        &mut self,
        requests: &[(NodeKey, NodeKey)],
        workers: usize,
        report: &mut EngineReport,
    ) {
        let batch = self.cfg.batch.max(1);
        let (clock, star_hops) = (self.clock, self.cfg.router_hops);
        if report.obs.mode != ObsMode::Off {
            let shards = self.map.shards();
            for w in report.obs.workers.len()..workers {
                let tracer = Tracer::with_capacity((shards + 1 + w) as u32, self.cfg.obs_events);
                report.obs.workers.push(tracer);
            }
        }
        let mut tracers = std::mem::take(&mut report.obs.workers).into_iter();
        let lanes: Vec<Lane<N>> = deal(std::mem::take(&mut self.nets), workers)
            .into_iter()
            .zip(deal(report.per_shard.clone(), workers))
            .zip(deal(std::mem::take(&mut report.obs.per_shard), workers))
            .enumerate()
            .map(|(id, ((nets, books), cols))| Lane {
                id,
                nets,
                books,
                cols,
                cross: Metrics::default(),
                tracer: tracers.next(),
            })
            .collect();
        let map = &self.map;
        let spine = &mut self.spine;

        let (nets, books, cols) = std::thread::scope(|scope| {
            let mut senders = Vec::with_capacity(workers);
            let mut handles = Vec::with_capacity(workers);
            for lane in lanes {
                let (tx, rx) = mpsc::sync_channel::<Vec<Op>>(QUEUE_DEPTH);
                senders.push(tx);
                handles.push(scope.spawn(move || worker_loop(lane, rx, workers, clock)));
            }

            let mut buffers: Vec<Vec<Op>> =
                (0..workers).map(|_| Vec::with_capacity(batch)).collect();
            let push = |buffers: &mut Vec<Vec<Op>>, obs: &mut ObsReport, op: Op| {
                let w = op.shard as usize % workers;
                buffers[w].push(op);
                if buffers[w].len() == batch {
                    let buffered: usize = buffers.iter().map(Vec::len).sum();
                    record_handoff(obs, w, batch, buffered, clock);
                    let full = std::mem::replace(&mut buffers[w], Vec::with_capacity(batch));
                    // ksan-allow: panic-surface a closed queue means the scoped worker panicked; propagating is correct
                    senders[w].send(full).expect("engine worker hung up");
                }
            };
            for &(u, v) in requests {
                let routed = route_request(map, u, v, |op| push(&mut buffers, &mut report.obs, op));
                if let Some(pair) = routed {
                    let (cross, hops) = (&mut report.cross, &mut report.router_hops);
                    book_router(spine.as_mut(), star_hops, pair, cross, hops);
                }
            }
            for (w, buf) in buffers.iter_mut().enumerate() {
                if !buf.is_empty() {
                    record_handoff(&mut report.obs, w, buf.len(), buf.len(), clock);
                    let tail = std::mem::take(buf);
                    // ksan-allow: panic-surface a closed queue means the scoped worker panicked; propagating is correct
                    senders[w].send(tail).expect("engine worker hung up");
                }
            }
            drop(senders); // close the queues: workers drain and return

            let (mut nets, mut books, mut cols) = (Vec::new(), Vec::new(), Vec::new());
            for handle in handles {
                // ksan-allow: panic-surface join fails only if the worker panicked; re-panicking propagates it
                let lane = handle.join().expect("engine worker panicked");
                nets.push(lane.nets);
                books.push(lane.books);
                cols.push(lane.cols);
                report.cross.merge(&lane.cross);
                report.obs.workers.extend(lane.tracer);
            }
            (nets, books, cols)
        });
        self.nets = interleave(nets);
        report.per_shard = interleave(books);
        report.obs.per_shard = interleave(cols);
    }
}

/// Everything one worker owns while it drains its queue: the shards
/// `s ≡ id (mod workers)` in ascending order — their nets, intra-shard
/// accounts and collectors (no collectors when observability is off) —
/// plus its share of the cross-shard half-serve cost and its batch
/// timeline.
struct Lane<N> {
    id: usize,
    nets: Vec<N>,
    books: Vec<Metrics>,
    cols: Vec<ObsCollector>,
    cross: Metrics,
    tracer: Option<Tracer>,
}

/// Drains one worker's queue through [`shard_step`] — the per-shard step
/// the inline path runs, fed the same per-shard op order — and hands the
/// lane back once the dispatcher closes the queue. Allocation-free.
fn worker_loop<N: Network>(
    mut lane: Lane<N>,
    rx: mpsc::Receiver<Vec<Op>>,
    workers: usize,
    clock: Option<Stopwatch>,
) -> Lane<N> {
    while let Ok(ops) = rx.recv() {
        if let Some(tracer) = lane.tracer.as_mut() {
            let (len, id) = (ops.len() as u64, lane.id as u64);
            Tracer::record_timed(tracer, EventKind::ShardDispatch, len, id, stamp(clock), 0);
        }
        for op in ops {
            let i = op.shard as usize / workers;
            let (net, book) = (&mut lane.nets[i], &mut lane.books[i]);
            shard_step(net, lane.cols.get_mut(i), clock, op, book, &mut lane.cross);
        }
    }
    lane
}

/// Deals per-shard items onto `workers` lanes: shard `s` becomes entry
/// `s / workers` of lane `s % workers`.
fn deal<T>(items: Vec<T>, workers: usize) -> Vec<Vec<T>> {
    let mut lanes: Vec<Vec<T>> = (0..workers).map(|_| Vec::new()).collect();
    for (s, item) in items.into_iter().enumerate() {
        lanes[s % workers].push(item);
    }
    lanes
}

/// The inverse of [`deal`]: reassembles per-lane items in shard order.
fn interleave<T>(lanes: Vec<Vec<T>>) -> Vec<T> {
    let workers = lanes.len();
    let len = lanes.iter().map(Vec::len).sum();
    let mut lanes: Vec<_> = lanes.into_iter().map(Vec::into_iter).collect();
    (0..len).filter_map(|s| lanes[s % workers].next()).collect()
}

impl ShardedEngine<kst_core::KSplayNet> {
    /// Convenience constructor: one balanced k-ary SplayNet per shard,
    /// with the live-resharding surgery ops attached (inert until
    /// [`ReshardConfig::enabled`]).
    pub fn ksplay(k: usize, n: usize, cfg: EngineConfig) -> ShardedEngine<kst_core::KSplayNet> {
        ShardedEngine::new(n, cfg, |_, range| {
            kst_core::KSplayNet::balanced(k, range.len())
        })
        .with_resharding()
    }
}

impl ShardedEngine<kst_core::PushDownNet> {
    /// Convenience constructor: one k-ary Push-Down Tree per shard
    /// (competing topology; local occupant swaps, fixed complete shape).
    pub fn pushdown(k: usize, n: usize, cfg: EngineConfig) -> ShardedEngine<kst_core::PushDownNet> {
        ShardedEngine::new(n, cfg, |_, range| {
            kst_core::PushDownNet::new(k, range.len())
        })
    }
}

impl ShardedEngine<kst_core::lazy::LazyKaryNet<kst_core::lazy::IncrementalWeightBalanced>> {
    /// Convenience constructor: one lazy rebuild-based k-ary net per
    /// shard (epoch trigger `alpha`, incremental weight-balanced
    /// rebuilder with imbalance threshold `tau`, demand half-life
    /// `half_life` epochs). The config whose rebuild pauses the
    /// observability layer is built to expose.
    pub fn lazy(
        k: usize,
        n: usize,
        alpha: u64,
        tau: u64,
        half_life: u32,
        cfg: EngineConfig,
    ) -> ShardedEngine<kst_core::lazy::LazyKaryNet<kst_core::lazy::IncrementalWeightBalanced>> {
        ShardedEngine::new(n, cfg, |_, range| {
            kst_core::lazy::LazyKaryNet::new(
                k,
                range.len(),
                alpha,
                kst_core::lazy::incremental_weight_balanced_rebuilder(k, tau),
            )
            .with_half_life(half_life)
        })
    }
}

impl ShardedEngine<kst_core::RotorWalkNet> {
    /// Convenience constructor: one k-ary Rotor-Walk Tree per shard
    /// (competing topology; deterministic rotor-directed displacement).
    pub fn rotor(k: usize, n: usize, cfg: EngineConfig) -> ShardedEngine<kst_core::RotorWalkNet> {
        ShardedEngine::new(n, cfg, |_, range| {
            kst_core::RotorWalkNet::new(k, range.len())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kst_core::KSplayNet;
    use kst_workloads::gens;

    #[test]
    fn threaded_and_sequential_runs_are_bit_identical() {
        let trace = gens::uniform(240, 6000, 11);
        let cfg = EngineConfig::default()
            .with_shards(5)
            .with_threads(3)
            .with_batch(64);
        let mut seq = ShardedEngine::ksplay(3, 240, cfg.clone().with_threads(1));
        let mut par = ShardedEngine::ksplay(3, 240, cfg);
        let a = seq.run_trace(&trace);
        let b = par.run_trace(&trace);
        assert_eq!(a, b);
        assert_eq!(a.total().requests, 6000);
        assert!(a.cross.requests > 0, "uniform traffic must cross shards");
    }

    #[test]
    fn one_shard_engine_has_no_cross_traffic() {
        let trace = gens::temporal(100, 2000, 0.5, 5);
        let mut eng = ShardedEngine::ksplay(2, 100, EngineConfig::default());
        let rep = eng.run_trace(&trace);
        assert_eq!(rep.cross, Metrics::default());
        assert_eq!(rep.router_hops, 0);
        assert_eq!(rep.per_shard[0].requests, 2000);
    }

    #[test]
    fn cross_shard_request_charges_router_and_gateway_serves() {
        // 2 shards over 1..=10: [1..=5] gateway 3, [6..=10] gateway 8.
        let cfg = EngineConfig::default().with_shards(2).with_threads(1);
        let mut eng = ShardedEngine::ksplay(2, 10, cfg);
        let mut rep = EngineReport::new(2);

        // Reference nets mirroring the two shards.
        let mut lo = KSplayNet::balanced(2, 5);
        let mut hi = KSplayNet::balanced(2, 5);

        let c = eng.serve_one(1, 9, &mut rep);
        let want = lo.serve(1, 3).total_unit() + hi.serve(3, 4).total_unit() + 2;
        assert_eq!(c.total_unit(), want);
        assert_eq!(rep.cross.requests, 1);
        assert_eq!(rep.router_hops, 2);
        assert_eq!(rep.per_shard[0], Metrics::default());

        // An endpoint that *is* the gateway skips its half-serve.
        let c2 = eng.serve_one(3, 8, &mut rep);
        assert_eq!(c2.total_unit(), 2, "gateway-to-gateway is router-only");
        assert_eq!(rep.cross.requests, 2);
    }

    #[test]
    fn report_merge_is_associative_with_chunked_runs() {
        let trace = gens::temporal(120, 4000, 0.7, 9);
        let inline = EngineConfig::default().with_shards(3).with_threads(1);
        let threaded = inline
            .clone()
            .with_threads(3)
            .with_obs(ObsMode::Deterministic);
        for cfg in [inline, threaded] {
            let mut whole = ShardedEngine::ksplay(2, 120, cfg.clone());
            let full = whole.run_trace(&trace);

            let mut chunked = ShardedEngine::ksplay(2, 120, cfg);
            let reqs = trace.requests();
            let mut acc = EngineReport::new(3);
            for chunk in reqs.chunks(500) {
                let sub = Trace::new(120, chunk.to_vec());
                let part = chunked.run_trace(&sub);
                acc.merge(&part);
            }
            assert_eq!(acc, full);
        }
    }

    fn two_shard_engine() -> ShardedEngine<KSplayNet> {
        let cfg = EngineConfig::default().with_shards(2).with_threads(1);
        ShardedEngine::ksplay(2, 10, cfg)
    }

    #[test]
    #[should_panic(expected = "key 0 outside keyspace 1..=10")]
    fn serve_one_rejects_key_zero() {
        two_shard_engine().serve_one(0, 4, &mut EngineReport::new(2));
    }

    #[test]
    #[should_panic(expected = "key 11 outside keyspace 1..=10")]
    fn serve_one_rejects_key_past_n() {
        two_shard_engine().serve_one(2, 11, &mut EngineReport::new(2));
    }

    #[test]
    #[should_panic(expected = "self-request (7, 7)")]
    fn serve_one_rejects_a_self_request() {
        two_shard_engine().serve_one(7, 7, &mut EngineReport::new(2));
    }

    #[test]
    fn factory_size_mismatch_panics() {
        let r = std::panic::catch_unwind(|| {
            ShardedEngine::new(
                10,
                EngineConfig::default().with_shards(2),
                |_, _| KSplayNet::balanced(2, 7), // wrong size
            )
        });
        assert!(r.is_err());
    }

    #[test]
    fn ksplay_spine_converges_on_a_hot_shard_pair() {
        // 8 shards, one hot cross-shard pair: the star charges a flat 2
        // per request; the spine pulls the two gateways adjacent and
        // serves repeats at 1 hop.
        let n = 160;
        let cfg = EngineConfig::default().with_shards(8).with_threads(1);
        let star_cfg = cfg.clone();
        let spine_cfg = cfg.with_spine(SpineMode::KSplay { k: 2 });
        let mut star = ShardedEngine::ksplay(2, n, star_cfg);
        let mut spine = ShardedEngine::ksplay(2, n, spine_cfg);
        // Gateway-to-gateway requests isolate the router charge.
        let (g0, g7) = (star.map().gateway(0), star.map().gateway(7));
        let reqs: Vec<(NodeKey, NodeKey)> = (0..500).map(|_| (g0, g7)).collect();
        let trace = Trace::new(n, reqs);
        let a = star.run_trace(&trace);
        let b = spine.run_trace(&trace);
        assert_eq!(a.router_hops, 1000, "star: flat 2 per request");
        assert!(
            b.router_hops < a.router_hops,
            "spine should beat the star on a repeated pair ({} vs {})",
            b.router_hops,
            a.router_hops
        );
    }

    #[test]
    fn resharding_migrates_hot_boundary_traffic() {
        // A hot pair straddling the shard 0/1 boundary: resharding
        // should shift the boundary so the pair lands in one shard.
        let n = 200; // 4 shards of 50
        let mut rc = ReshardConfig::on();
        rc.epoch = 200;
        rc.budget = 8;
        let cfg = EngineConfig::default()
            .with_shards(4)
            .with_threads(1)
            .with_reshard(rc);
        let mut eng = ShardedEngine::ksplay(2, n, cfg);
        // (50, 51) straddles the first boundary.
        let reqs: Vec<(NodeKey, NodeKey)> = (0..1000).map(|_| (50, 51)).collect();
        let trace = Trace::new(n, reqs);
        let rep = eng.run_trace(&trace);
        assert!(rep.reshard.migrations >= 1, "no migration applied");
        assert!(rep.reshard.keys_moved >= 1);
        assert!(eng.map().version() >= 1);
        eng.map().validate().unwrap();
        assert_eq!(
            eng.map().shard_of(50),
            eng.map().shard_of(51),
            "hot pair should be co-located after resharding"
        );
        // Shard nets still track the (shifted) ranges exactly.
        for s in 0..eng.map().shards() {
            assert_eq!(eng.nets()[s].len(), eng.map().range(s).len());
        }
    }

    #[test]
    fn resharding_off_leaves_the_map_untouched() {
        let trace = gens::uniform(120, 3000, 3);
        let cfg = EngineConfig::default().with_shards(4).with_threads(1);
        let mut eng = ShardedEngine::ksplay(2, 120, cfg);
        let rep = eng.run_trace(&trace);
        assert_eq!(rep.reshard, ReshardReport::default());
        assert_eq!(eng.map().version(), 0);
    }
}
