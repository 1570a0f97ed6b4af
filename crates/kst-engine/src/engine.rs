//! The sharded serving engine: per-shard networks served in rounds on
//! lanes of shards, and explicit cross-shard cost accounting.
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
//! requests, a pair-only decaying ledger ([`kst_workloads::EwmaLedger`],
//! no per-key arrays at any keyspace size) accumulates cross-shard pair
//! demand, and at every epoch boundary a two-phase **plan/apply**
//! rebalance runs on the calling thread:
//!
//! 1. **Plan** — evaluate the `2(S − 1)` single-boundary shifts (each
//!    boundary, each direction, up to [`ReshardConfig::budget`] keys)
//!    against the smoothed demand: a shift's gain is the demand it heals
//!    (cross pairs made intra) minus the demand it breaks (intra pairs
//!    made cross), subject to a donor floor ([`ReshardConfig::MIN_SHARD`])
//!    and a receiver size cap ([`ReshardConfig::MAX_IMBALANCE_PCT`]).
//! 2. **Apply** — if the best gain clears [`ReshardConfig::min_gain`],
//!    splice the boundary run out of the donor shard's tree, absorb the
//!    fragment into the neighbour, shift the [`ShardMap`] boundary and
//!    bump its version. The engine reaches the two trees through
//!    [`Network::reshardable`], so only net types that return a
//!    [`kst_core::Reshardable`] there (the k-ary SplayNet) can run with
//!    resharding on; [`ShardedEngine::new`] rejects any other. The
//!    fragment carries the run's learned subtree shape, so migrated hot
//!    keys stay near its root. The shape is captured by in-order rank
//!    ([`kst_core::KstTree::subtree_shape`]), so an inner subtree whose
//!    key set has a hole (k-splaying can leave an ancestor's key inside a
//!    child's slot gap) arrives re-ranked, with some links changed.
//!
//! # Serving in rounds
//!
//! Every request goes through one round function, for
//! [`ShardedEngine::run_trace`] and [`ShardedEngine::serve_one`] alike: it
//! routes a round of requests in trace order into one bucket per **lane**
//! (`min(threads, S)` contiguous blocks of shards), booking the router as
//! it goes, then drains each bucket in order through the one per-shard
//! step — the first busy lane on the calling thread, each further one on
//! a scoped worker. Shards share no state, so a shard's costs depend only
//! on the order of its own operations, which routing in trace order fixes;
//! resharding plans between epochs from a ledger the lanes never touch. So
//! costs are bit-identical for any thread count and round size, which the
//! differential tests assert.

use crate::obs::{record_handoff, stamp, ObsMode, ObsReport, SPAN_EVENTS};
use crate::shard::ShardMap;
use kst_core::{KSplayNet, Network, ServeCost};
use kst_obs::{EventKind, Histogram, Stopwatch, Tracer};
use kst_sim::obs::ObsCollector;
use kst_sim::Metrics;
use kst_workloads::{EwmaLedger, KeyRange, NodeKey, Trace};

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
    /// Maximum keys moved by one migration (one per epoch boundary).
    pub budget: usize,
    /// Minimum demand gain (healed minus broken pair weight) required to
    /// apply a migration.
    pub min_gain: u64,
}

impl Default for ReshardConfig {
    fn default() -> ReshardConfig {
        ReshardConfig {
            enabled: false,
            epoch: 4096,
            budget: 256,
            min_gain: 1,
        }
    }
}

impl ReshardConfig {
    /// Half-life (in epochs) of the decaying cross-shard demand ledger.
    pub const HALF_LIFE: u32 = 4;
    /// Donor shards always keep at least this many keys.
    pub const MIN_SHARD: usize = 8;
    /// Receiver-size cap as a percentage of the mean shard size `n / S`
    /// (200 = a shard may grow to at most 2× the mean).
    pub const MAX_IMBALANCE_PCT: u64 = 200;

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
    /// Threads serving each round: the shards split into `min(threads, S)`
    /// lanes of contiguous blocks, and a round's non-empty lanes run on
    /// the calling thread plus one scoped worker each. `1` (or one shard)
    /// never spawns. The totals are the same for any value.
    pub threads: usize,
    /// Requests per round (`KSAN_BATCH`). A round is routed whole, then
    /// its lanes serve, so each round with two or more busy lanes spawns
    /// and joins once. The default, 4096, is [`ReshardConfig::on`]'s
    /// epoch, so a resharding run spawns once per epoch.
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
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            shards: 1,
            threads: kst_sim::par::default_threads(),
            batch: 4096,
            build_threads: 1,
            router_hops: 2,
            spine: SpineMode::Star,
            reshard: ReshardConfig::default(),
            obs: ObsMode::Off,
        }
    }
}

impl EngineConfig {
    /// Reads overrides from the environment: `KSAN_SHARDS`,
    /// `KSAN_THREADS`, `KSAN_BATCH`, `KSAN_BUILD_THREADS`,
    /// `KSAN_OBS` (`off`/`det`/`wall`), `KSAN_SPINE` (`star`/`ksplay`),
    /// `KSAN_SPINE_K`, `KSAN_RESHARD` (`on`/`off`), `KSAN_RESHARD_EPOCH`
    /// and `KSAN_RESHARD_BUDGET`. `KSAN_RESHARD=on` takes effect only on net
    /// types whose [`Network::reshardable`] hook returns `Some`;
    /// [`ShardedEngine::new`] rejects the others when there are two or
    /// more shards.
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
        if let Some(m) = std::env::var("KSAN_OBS")
            .ok()
            .and_then(|v| ObsMode::parse(&v))
        {
            cfg.obs = m;
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

    /// Builder-style round size override.
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

/// One routed shard operation. `half` distinguishes the gateway
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
/// point of the round function, so the [`ShardMap`] lookup and the
/// gateway half-serve rules live in exactly one place.
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
/// shard's own account, a gateway half-serve into the lane's cross-shard
/// share without counting a request. Every lane runs this against the
/// same per-shard op order, which is what makes costs and deterministic
/// histograms bit-identical across lane counts. Allocation-free.
fn shard_step<N: Network>(
    net: &mut N,
    col: Option<&mut ObsCollector>,
    clock: Option<Stopwatch>,
    op: Op,
    intra: &mut Metrics,
    cross: &mut ServeCost,
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

/// A sharded serving engine: `S` independent shard networks plus the
/// top-level router spine, serving requests in rounds on lanes of
/// contiguous shard blocks, optionally rebalancing the partition between
/// epochs (live resharding).
pub struct ShardedEngine<N> {
    map: ShardMap,
    nets: Vec<N>,
    /// The self-adjusting router spine; `None` under [`SpineMode::Star`]
    /// (or with fewer than two shards), where the router is a constant
    /// charge instead of a network.
    spine: Option<KSplayNet>,
    /// The decaying cross-shard demand ledger migrations are planned
    /// from; present iff live resharding runs ([`ReshardConfig::enabled`]
    /// with two or more shards).
    demand: Option<EwmaLedger>,
    cfg: EngineConfig,
    /// Run-origin clock, present iff [`EngineConfig::obs`] is
    /// [`ObsMode::WallClock`]: every wall-clock timestamp an observed run
    /// stamps (span `ts`, rebuild pauses) is an offset from it, so all
    /// threads share one time base.
    clock: Option<Stopwatch>,
    /// One bucket per lane (`min(threads, S)` of them), kept across
    /// rounds and runs so each keeps its capacity.
    buckets: Vec<Bucket>,
}

/// One lane's bucket: the ops routed to its shards this round, in trace
/// order, then what draining them charged (cross-shard share, all ops).
#[derive(Default)]
struct Bucket {
    ops: Vec<Op>,
    cross: ServeCost,
    cost: ServeCost,
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
    /// `build_threads = T > 1`, `T` scoped workers claim shards in shard
    /// order ([`kst_sim::par::par_map`]), each building one at a time, so
    /// up to `T` construction transients overlap — bounded
    /// overlap replaces "never coexist", trading a T-bounded transient-RSS
    /// bump for a near-linear construction speedup. Shards are
    /// independent, so the built engine is bit-identical either way.
    ///
    /// # Panics
    ///
    /// If a factory net's size differs from its shard's range, or if
    /// live resharding is on with two or more shards and a shard net's
    /// [`Network::reshardable`] hook returns `None`.
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
        let mut nets = kst_sim::par::par_map((0..shards).collect(), cfg.build_threads, build);
        let demand = (cfg.reshard.enabled && shards >= 2).then(|| {
            for net in &mut nets {
                assert!(
                    net.reshardable().is_some(),
                    "resharding is enabled but {} cannot reshard: \
                     use a reshardable net (e.g. ShardedEngine::ksplay) \
                     or turn resharding off",
                    net.label()
                );
            }
            EwmaLedger::new(n, ReshardConfig::HALF_LIFE)
        });
        let spine = match cfg.spine {
            SpineMode::KSplay { k } if shards >= 2 => Some(KSplayNet::balanced(k.max(2), shards)),
            _ => None,
        };
        let lanes = cfg.threads.clamp(1, shards);
        ShardedEngine {
            map,
            nets,
            spine,
            demand,
            clock: (cfg.obs == ObsMode::WallClock).then(Stopwatch::start),
            cfg,
            buckets: (0..lanes).map(|_| Bucket::default()).collect(),
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

    /// The epoch-boundary rebalance: folds the epoch's cross-shard
    /// demand into the decaying ledger, plans the best single boundary
    /// shift, and applies it by splicing the boundary run between the
    /// neighbouring shard trees. Runs between epochs on the calling thread
    /// (cold path — the serve path itself stays allocation-free);
    /// deterministic given the trace and config, independent of the lane
    /// and round layout.
    fn reshard_boundary(&mut self, chunk: &[(NodeKey, NodeKey)], report: &mut EngineReport) {
        let Some(demand) = self.demand.as_mut() else {
            return;
        };
        let shards = self.map.shards();
        for &(u, v) in chunk {
            if self.map.shard_of(u) != self.map.shard_of(v) {
                demand.record(u, v);
            }
        }
        demand.decay_merge();
        let rc = self.cfg.reshard;
        // Candidates: the 2(S−1) single-boundary shifts. Candidate 2b
        // grows shard b with the low end of b+1 (positive delta); 2b + 1
        // donates b's high end to b+1 (negative delta). `runs[c]` is the
        // candidate's migrating key run, donor and receiver, `None` where
        // the shift is not allowed.
        let mut runs = vec![None; 2 * (shards - 1)];
        for (c, run) in runs.iter_mut().enumerate() {
            let (b, grow_left) = (c / 2, c % 2 == 0);
            let (donor, receiver) = if grow_left { (b + 1, b) } else { (b, b + 1) };
            let donor_range = self.map.range(donor);
            let l = rc
                .budget
                .min(donor_range.len().saturating_sub(ReshardConfig::MIN_SHARD));
            if l == 0 {
                continue;
            }
            let recv_len = self.map.range(receiver).len();
            if (recv_len + l) as u64 * 100 * shards as u64
                > ReshardConfig::MAX_IMBALANCE_PCT * self.map.n() as u64
            {
                continue;
            }
            let (mlo, mhi) = if grow_left {
                (donor_range.lo, donor_range.lo + l as NodeKey - 1)
            } else {
                (donor_range.hi - l as NodeKey + 1, donor_range.hi)
            };
            *run = Some((mlo, mhi, donor, receiver, l));
        }
        // Score every candidate in one pass over the live pairs. A shift
        // changes a pair only when exactly one endpoint migrates: healed
        // when the other endpoint sits in the receiver (the pair becomes
        // intra-shard), broken when it sits in the donor. An endpoint in
        // shard s can only migrate with s's low-end run (candidate
        // 2(s−1)) or its high-end run (2s + 1), so each pair touches at
        // most four candidates, and at most two when both endpoints share
        // a shard.
        let obs = report.obs.mode != ObsMode::Off;
        let mut load = vec![0u64; if obs { shards } else { 0 }];
        let mut gains = vec![0i64; runs.len()];
        let mut live = false;
        for (u, v, w) in demand.pairs() {
            live = true;
            let (su, sv) = (self.map.shard_of(u), self.map.shard_of(v));
            if obs {
                load[su] += w;
                load[sv] += w;
            }
            let ends = [su, sv];
            for &s in &ends[..if su == sv { 1 } else { 2 }] {
                let low_end = s.checked_sub(1).map(|b| 2 * b);
                let high_end = (s + 1 < shards).then_some(2 * s + 1);
                for c in [low_end, high_end].into_iter().flatten() {
                    let Some((mlo, mhi, donor, receiver, _)) = runs[c] else {
                        continue;
                    };
                    let mu = u >= mlo && u <= mhi;
                    let mv = v >= mlo && v <= mhi;
                    if mu == mv {
                        continue;
                    }
                    let so = if mu { sv } else { su };
                    if so == receiver {
                        gains[c] += w as i64;
                    } else if so == donor {
                        gains[c] -= w as i64;
                    }
                }
            }
        }
        if obs {
            let total: u64 = load.iter().sum();
            // Hottest shard's demand share over the uniform share,
            // ×100 — integer arithmetic, so the surface is
            // deterministic and part of report equality.
            let maxl = *load.iter().max().unwrap_or(&0);
            if let Some(pct) = (maxl * 100 * shards as u64).checked_div(total) {
                Histogram::record(&mut report.obs.imbalance, pct);
            }
        }
        if !live {
            return;
        }
        // Plan: the best candidate. Ties keep the first in candidate order
        // (lowest boundary, grow-left before grow-right), so the plan is
        // deterministic.
        let mut best: Option<(i64, usize, isize)> = None;
        for (c, (run, &gain)) in runs.iter().zip(&gains).enumerate() {
            let Some((_, _, _, _, l)) = *run else {
                continue;
            };
            let dir = if c % 2 == 0 { 1isize } else { -1 };
            if gain >= rc.min_gain.min(i64::MAX as u64) as i64
                && best.is_none_or(|(bg, _, _)| gain > bg)
            {
                best = Some((gain, c / 2, dir * l as isize));
            }
        }
        let Some((_gain, b, delta)) = best else {
            return;
        };
        let l = delta.unsigned_abs();
        // Apply: splice the boundary run out of the donor tree and hand
        // the fragment (its learned shape, re-ranked around key holes) to
        // the neighbour, then
        // shift the map boundary and bump its version. `new` checked that
        // every shard net is reshardable.
        let (low, high) = self.nets.split_at_mut(b + 1);
        let (Some(left), Some(right)) = (low[b].reshardable(), high[0].reshardable()) else {
            return;
        };
        let (extract, absorb) = if delta > 0 {
            let (frag, extract) = right.extract_low(l);
            (extract, left.absorb_high(&frag))
        } else {
            let (frag, extract) = left.extract_high(l);
            (extract, right.absorb_low(&frag))
        };
        let links = extract.links_changed + absorb.links_changed;
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

impl<N: Network + Send> ShardedEngine<N> {
    /// Serves one request on the calling thread as a one-request round on
    /// one lane, folding its cost into `report` (and into `report.obs`'s
    /// collectors, if it has any) and returning the request's combined
    /// [`ServeCost`] (cross-shard: both gateway half-serves plus the
    /// router's charge). [`ShardedEngine::run_trace`] serves through the
    /// same round. Allocation-free once the lane's bucket has held a
    /// request's ops.
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
        self.serve_round(&[(u, v)], 1, report)
    }

    /// Replays the trace into one report, in rounds of
    /// [`EngineConfig::batch`] requests on `min(threads, shards)` lanes.
    /// With live resharding on, the rounds fill epochs of
    /// [`ReshardConfig::epoch`] requests, each followed by the
    /// epoch-boundary rebalance; otherwise the whole trace is one epoch.
    pub fn run_trace(&mut self, trace: &Trace) -> EngineReport {
        assert_eq!(trace.n(), self.map.n(), "trace keyspace != engine keyspace");
        let shards = self.map.shards();
        let lanes = self.buckets.len();
        let mut report = EngineReport::new(shards);
        report.obs = ObsReport::with_config(shards, self.cfg.obs);
        if report.obs.mode != ObsMode::Off {
            report.obs.workers = (shards + 1..shards + 1 + lanes)
                .map(|track| Tracer::with_capacity(track as u32, SPAN_EVENTS))
                .collect();
        }
        let batch = self.cfg.batch.max(1);
        // A request routes to at most two ops, so no round outgrows this.
        for bucket in &mut self.buckets {
            bucket.ops.reserve(2 * batch.min(trace.len()));
        }
        let resharding = self.demand.is_some();
        let epoch = if resharding {
            self.cfg.reshard.epoch.max(1)
        } else {
            trace.len().max(1)
        };
        for chunk in trace.requests().chunks(epoch) {
            for round in chunk.chunks(batch) {
                self.serve_round(round, lanes, &mut report);
            }
            if resharding {
                self.reshard_boundary(chunk, &mut report);
            }
        }
        report
    }

    /// The engine's one serve path (see the module docs): lane `l` of
    /// `lanes` holds shards `l·S/lanes .. (l+1)·S/lanes`. Returns the
    /// round's summed cost. Allocation-free when one lane is busy and the
    /// buckets already hold the round's ops.
    fn serve_round(
        &mut self,
        requests: &[(NodeKey, NodeKey)],
        lanes: usize,
        report: &mut EngineReport,
    ) -> ServeCost {
        let shards = self.map.shards();
        let (clock, star_hops) = (self.clock, self.cfg.router_hops);
        let (cross, router_hops) = (&mut report.cross, &mut report.router_hops);
        let buckets = &mut self.buckets[..lanes];
        let mut cost = ServeCost::default();
        for &(u, v) in requests {
            let routed = route_request(&self.map, u, v, |op| {
                let lane = ((op.shard as usize + 1) * lanes - 1) / shards;
                buckets[lane].ops.push(op);
            });
            if let Some(pair) = routed {
                cost += book_router(self.spine.as_mut(), star_hops, pair, cross, router_hops);
            }
        }
        let obs = &mut report.obs;
        if obs.mode != ObsMode::Off {
            record_handoff(obs, buckets.iter().map(|b| b.ops.len()), clock);
        }

        let (mut nets, mut books) = (&mut self.nets[..], &mut report.per_shard[..]);
        let (mut cols, mut tracers) = (&mut obs.per_shard[..], obs.workers.iter_mut());
        let mut first = 0;
        let mut busy = buckets.iter_mut().enumerate().filter_map(|(id, bucket)| {
            let end = (id + 1) * shards / lanes;
            let len = end - first;
            let lane = Lane {
                id,
                first,
                nets: split_front(&mut nets, len),
                books: split_front(&mut books, len),
                cols: split_front(&mut cols, len),
                tracer: tracers.next(),
                bucket,
            };
            first = end;
            (!lane.bucket.ops.is_empty()).then_some(lane)
        });
        if let Some(own) = busy.next() {
            let mut rest = busy.peekable();
            if rest.peek().is_none() {
                drain_lane(own, clock);
            } else {
                std::thread::scope(|scope| {
                    for lane in rest {
                        scope.spawn(move || drain_lane(lane, clock));
                    }
                    drain_lane(own, clock);
                });
            }
        }
        for bucket in buckets {
            *cross += std::mem::take(&mut bucket.cross);
            cost += std::mem::take(&mut bucket.cost);
        }
        cost
    }
}

/// Splits the first `len` items (all of them, if fewer) off the front of
/// `rest`.
fn split_front<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let all = std::mem::take(rest);
    let (head, tail) = all.split_at_mut(len.min(all.len()));
    *rest = tail;
    head
}

/// What one lane borrows for a round: the nets, intra-shard accounts and
/// collectors (none when observability is off) of its shards, the first
/// of which is shard `first`; its timeline; and its bucket.
struct Lane<'a, N> {
    id: usize,
    first: usize,
    nets: &'a mut [N],
    books: &'a mut [Metrics],
    cols: &'a mut [ObsCollector],
    tracer: Option<&'a mut Tracer>,
    bucket: &'a mut Bucket,
}

/// Drains one lane's bucket in order through [`shard_step`], summing its
/// cross-shard share and its cost into the bucket. Allocation-free.
fn drain_lane<N: Network>(lane: Lane<'_, N>, clock: Option<Stopwatch>) {
    let Bucket { ops, cross, cost } = lane.bucket;
    if let Some(tracer) = lane.tracer {
        let (len, id) = (ops.len() as u64, lane.id as u64);
        Tracer::record_timed(tracer, EventKind::ShardDispatch, len, id, stamp(clock), 0);
    }
    // Sums in locals: the loop's stores to the books could alias the
    // bucket's fields as far as the compiler knows.
    let (mut lane_cross, mut lane_cost) = (ServeCost::default(), ServeCost::default());
    for op in ops.drain(..) {
        let i = op.shard as usize - lane.first;
        let (net, book) = (&mut lane.nets[i], &mut lane.books[i]);
        lane_cost += shard_step(net, lane.cols.get_mut(i), clock, op, book, &mut lane_cross);
    }
    (*cross, *cost) = (lane_cross, lane_cost);
}

impl ShardedEngine<kst_core::KSplayNet> {
    /// Convenience constructor: one balanced k-ary SplayNet per shard.
    /// The one reshardable net type, so it honours
    /// [`ReshardConfig::enabled`].
    pub fn ksplay(k: usize, n: usize, cfg: EngineConfig) -> ShardedEngine<kst_core::KSplayNet> {
        ShardedEngine::new(n, cfg, |_, range| {
            kst_core::KSplayNet::balanced(k, range.len())
        })
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
