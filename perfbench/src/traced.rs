//! The traced run: the `SessionEngine`/`Applier` primitives composed exactly
//! as the deterministic inline runtime composes them, with a span around
//! every call into a layer, plus a fold-only replay of the applier half in
//! the sharded runtime's deferred-RIB mode (the only way to see
//! `Applier::sync_rib` on its own).

use crate::runs::Prepared;
use crate::spans::{Tracer, NONE};
use std::time::{Duration, Instant};
use swift_bgp::{InternedRib, PeerId, RoutingTable};
use swift_core::encoding::ReroutingPolicy;
use swift_core::inference::{EngineStatus, KernelStats};
use swift_core::pipeline::{session_engines, Applier, SessionEngine};
use swift_core::{RerouteAction, TwoStageTable};
use swift_traces::soak::ReplayItem;

/// Span names of the traced inline pass.
pub mod name {
    /// The whole pass (root span).
    pub const PASS: &str = "trace.pass";
    /// One event: the glue around the calls below.
    pub const EVENT: &str = "trace.event";
    /// Bookkeeping of the benchmark's own checks (excluded from the wall).
    pub const CHECK: &str = "bench.check";
    /// `session_engines`: seeding every engine from the table.
    pub const SEED: &str = "inference.seed";
    /// `Applier::new`: building the forwarding-table encoding.
    pub const BUILD: &str = "encoding.build";
    /// `Applier::note_event`.
    pub const NOTE: &str = "pipeline.note_event";
    /// `SessionEngine::process` returning `Idle`.
    pub const IDLE: &str = "inference.idle";
    /// `SessionEngine::process` returning `WaitingForTrigger`.
    pub const WAIT: &str = "inference.wait";
    /// `SessionEngine::process` returning `AlreadyAccepted`.
    pub const AFTER: &str = "inference.after";
    /// `SessionEngine::process` returning `Accepted` or `RejectedByHistory`.
    pub const ATTEMPT: &str = "inference.attempt";
    /// `Applier::apply_inference`.
    pub const INSTALL: &str = "pipeline.install";
    /// `Applier::resync_after_convergence`.
    pub const RESYNC: &str = "pipeline.resync";
    /// Session teardown or re-registration (engine and applier halves).
    pub const SESSION: &str = "pipeline.session";
    /// `Applier::sync_rib` in deferred mode (fold-only replay).
    pub const SYNC_RIB: &str = "pipeline.sync_rib";
}

/// What the traced inline pass measured and counted.
#[derive(Debug)]
pub struct TracedPass {
    /// Spans of the traced inline pass.
    pub tracer: Tracer,
    /// First event to the return of the final resync, minus the
    /// benchmark's own check spans.
    pub wall: Duration,
    /// Every reroute action, in order.
    pub actions: Vec<RerouteAction>,
    /// Kernel dispatch and scratch counters, summed over every event.
    pub kernels: KernelStats,
    /// Accepted inferences.
    pub accepted: u64,
    /// Inference attempts (accepted or rejected by the history model).
    pub attempts: u64,
    /// Withdrawals seen when each accepted inference was made.
    pub evidence: Vec<f64>,
    /// Encoding performance of each installed reroute.
    pub coverage: Vec<f64>,
    /// Reroutes that moved a predicted prefix onto a next-hop whose path
    /// crosses an inferred link.
    pub unsafe_reroutes: u64,
    /// Rules installed, summed over reroutes.
    pub rules_installed: u64,
    /// Rules removed, summed over resyncs.
    pub rules_removed: u64,
    /// Most SWIFT rules installed at once.
    pub swift_rules_hw: usize,
    /// Stage-1 entries of the built forwarding table.
    pub stage1_len: usize,
}

fn engine_from_routes(
    peer: PeerId,
    swift: &swift_core::SwiftConfig,
    routes: &[(swift_bgp::Prefix, swift_bgp::Route)],
) -> SessionEngine {
    let mut rib = InternedRib::new();
    for (prefix, route) in routes {
        rib.push(*prefix, route.as_path());
    }
    SessionEngine::from_interned(peer, swift, &rib)
}

/// Runs the traced inline pass over the prepared input.
pub fn traced_pass(prep: &Prepared) -> TracedPass {
    let input = &prep.input;
    let mut t = Tracer::new();
    let [pass, ev_name, check, seed, build, note, idle, wait, after, attempt, install, resync, session] =
        [
            name::PASS,
            name::EVENT,
            name::CHECK,
            name::SEED,
            name::BUILD,
            name::NOTE,
            name::IDLE,
            name::WAIT,
            name::AFTER,
            name::ATTEMPT,
            name::INSTALL,
            name::RESYNC,
            name::SESSION,
        ]
        .map(|n| t.name(n));
    // Each event's outage id, looked up before the clock starts.
    let burst_ids: Vec<u32> = input
        .items
        .iter()
        .filter_map(|item| match item {
            ReplayItem::Event { peer, event } => Some(
                input
                    .burst_of(*peer, event.timestamp())
                    .map_or(NONE, |b| b as u32),
            ),
            _ => None,
        })
        .collect();
    let table = input.table.clone();
    let swift = input.swift.clone();
    let mut engines = t.span(seed, NONE, || session_engines(&swift, &table));
    let mut applier = t.span(build, NONE, || {
        Applier::new(swift.clone(), table, ReroutingPolicy::allow_all())
    });
    let stage1_len = applier.forwarding().stage1_len();
    let items = input.items.clone();
    let mut flaps = input.flap_routes.clone();

    let mut out = TracedPass {
        tracer: Tracer::new(),
        wall: Duration::ZERO,
        actions: Vec::new(),
        kernels: KernelStats::default(),
        accepted: 0,
        attempts: 0,
        evidence: Vec::new(),
        coverage: Vec::new(),
        unsafe_reroutes: 0,
        rules_installed: 0,
        rules_removed: 0,
        swift_rules_hw: 0,
        stage1_len,
    };
    let t0 = Instant::now();
    let root = t.enter(pass, NONE);
    let mut ev = 0usize;
    for item in items {
        match item {
            ReplayItem::Event { peer, event } => {
                let b = burst_ids[ev];
                ev += 1;
                let e = t.enter(ev_name, b);
                t.span(note, b, || applier.note_event(peer, &event));
                if let Some(engine) = engines.get_mut(&peer) {
                    let p = t.enter(idle, b);
                    let (status, result) = engine.process(&event);
                    let classified = match status {
                        EngineStatus::Idle => idle,
                        EngineStatus::WaitingForTrigger => wait,
                        EngineStatus::AlreadyAccepted => after,
                        EngineStatus::Accepted | EngineStatus::RejectedByHistory => attempt,
                    };
                    t.exit_as(p, classified);
                    if classified == attempt {
                        out.attempts += 1;
                    }
                    if let (EngineStatus::Accepted, Some(result)) = (status, result) {
                        out.accepted += 1;
                        out.evidence.push(result.withdrawals_seen as f64);
                        let action = t.span(install, b, || applier.apply_inference(peer, &result));
                        t.span(check, b, || {
                            let fwd = applier.forwarding();
                            out.coverage
                                .push(fwd.encoding_performance(&action.predicted, &action.links));
                            out.swift_rules_hw = out.swift_rules_hw.max(fwd.swift_rule_count());
                            let moved_unsafe = applier
                                .unsafe_reroutes(&action.predicted, &action.links)
                                .iter()
                                .any(|p| applier.forwarding_next_hop(p) != Some(peer));
                            out.unsafe_reroutes += u64::from(moved_unsafe);
                            out.rules_installed += action.rules_installed as u64;
                        });
                    }
                    add_kernels(&mut out.kernels, engine.take_kernel_stats());
                }
                t.exit(e);
            }
            ReplayItem::Converged { .. } => {
                out.rules_removed +=
                    t.span(resync, NONE, || applier.resync_after_convergence()) as u64;
            }
            ReplayItem::SessionDown { peer, .. } => t.span(session, NONE, || {
                engines.remove(&peer);
                applier.teardown_session(peer);
            }),
            ReplayItem::SessionUp { peer, .. } => {
                let (asn, routes) = flaps
                    .get_mut(&peer)
                    .map(|(asn, r)| (*asn, std::mem::take(r)))
                    .expect("flapped session has routes");
                t.span(session, NONE, || {
                    engines.insert(peer, engine_from_routes(peer, &swift, &routes));
                    applier.register_session(peer, asn, routes);
                });
            }
        }
    }
    out.rules_removed += t.span(resync, NONE, || applier.resync_after_convergence()) as u64;
    t.exit(root);
    let elapsed = t0.elapsed();
    let checks: u64 = t.durations(check).iter().sum();
    out.wall = elapsed.saturating_sub(Duration::from_nanos(checks));
    out.actions = applier.actions().to_vec();
    out.tracer = t;
    out
}

fn add_kernels(sum: &mut KernelStats, k: KernelStats) {
    sum.dense += k.dense;
    sum.sparse += k.sparse;
    sum.mixed += k.mixed;
    sum.scratch_reuse += k.scratch_reuse;
    sum.scratch_growth += k.scratch_growth;
}

/// The applier half alone in the sharded runtime's deferred-RIB mode: every
/// event is buffered and folded into the routing table at each convergence
/// point, as the runtime's applier thread does before a resync. Only the
/// fold is timed; the forwarding table is left empty because a fold never
/// reads it. Returns `(tracer, events folded)`.
pub fn sync_rib_replay(prep: &Prepared) -> (Tracer, u64) {
    let input = &prep.input;
    let policy = ReroutingPolicy::allow_all();
    let empty = TwoStageTable::build(&RoutingTable::new(), &input.swift.encoding, &policy);
    let mut applier = Applier::from_parts(input.swift.clone(), input.table.clone(), empty, policy)
        .with_deferred_rib();
    let mut t = Tracer::new();
    let sync = t.name(name::SYNC_RIB);
    let mut folded = 0u64;
    for item in &input.items {
        match item {
            ReplayItem::Event { peer, event } => applier.note_event(*peer, event),
            ReplayItem::Converged { .. } => {
                folded += t.span(sync, NONE, || applier.sync_rib()) as u64;
            }
            // Session flaps are not replayed: the fold's cost is the events'.
            ReplayItem::SessionDown { .. } | ReplayItem::SessionUp { .. } => {}
        }
    }
    folded += t.span(sync, NONE, || applier.sync_rib()) as u64;
    (t, folded)
}
