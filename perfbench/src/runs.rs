//! The timed passes: the deterministic inline runtime (the single-thread
//! baseline and correctness reference) and the sharded runtime driven closed
//! loop or open loop, each observed only through the runtime's public calls
//! and its live registry.

use crate::input::{FlapRoutes, Input};
use crate::pace::{lateness, Pacer};
use crate::spans::{Tracer, NONE};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};
use swift_bgp::{ElementaryEvent, PeerId, Timestamp};
use swift_core::encoding::ReroutingPolicy;
use swift_core::RerouteAction;
use swift_runtime::{BackpressurePolicy, RuntimeConfig, RuntimeReport, ShardedRuntime};
use swift_telemetry::Counter;
use swift_traces::soak::ReplayItem;

/// The measured sharded configuration: one worker shard and one applier
/// (two runtime threads beside the generator thread), lossless backpressure.
pub fn sharded_config() -> RuntimeConfig {
    RuntimeConfig {
        applier_shards: 1,
        backpressure: BackpressurePolicy::Block,
        ..RuntimeConfig::sharded(1)
    }
}

/// One reroute decision, projected to what must match across runtimes.
pub fn decision(a: &RerouteAction) -> String {
    format!(
        "t={} links={:?} predicted={}",
        a.time,
        a.links,
        a.predicted.len()
    )
}

/// Per-input lookups the passes share, built once before any clock starts.
#[derive(Debug)]
pub struct Prepared {
    /// The workload input.
    pub input: Input,
    /// Per session, `(timestamp, event index)` of every withdrawal.
    withdrawals: BTreeMap<PeerId, Vec<(Timestamp, usize)>>,
    /// Events before the stream's last convergence point.
    last_converged_event: usize,
    /// Per session, event positions of its teardowns.
    teardowns: BTreeMap<PeerId, Vec<usize>>,
}

impl Prepared {
    /// Indexes `input`.
    pub fn new(input: Input) -> Self {
        let mut withdrawals: BTreeMap<PeerId, Vec<(Timestamp, usize)>> = BTreeMap::new();
        let mut teardowns: BTreeMap<PeerId, Vec<usize>> = BTreeMap::new();
        let mut last_converged_event = 0;
        let mut ev = 0usize;
        for item in &input.items {
            match item {
                ReplayItem::Event { peer, event } => {
                    if let ElementaryEvent::Withdraw { timestamp, .. } = event {
                        withdrawals.entry(*peer).or_default().push((*timestamp, ev));
                    }
                    ev += 1;
                }
                ReplayItem::Converged { .. } => last_converged_event = ev,
                ReplayItem::SessionDown { peer, .. } => {
                    teardowns.entry(*peer).or_default().push(ev)
                }
                ReplayItem::SessionUp { .. } => {}
            }
        }
        Prepared {
            input,
            withdrawals,
            last_converged_event,
            teardowns,
        }
    }

    /// The event that triggered an action: the session's first withdrawal
    /// carrying the action's timestamp.
    pub fn trigger_of(&self, session: PeerId, time: Timestamp) -> Option<usize> {
        let list = self.withdrawals.get(&session)?;
        let i = list.partition_point(|(t, _)| *t < time);
        list.get(i).filter(|(t, _)| *t == time).map(|(_, ev)| *ev)
    }

    /// `true` if an action triggered at event `trigger` still has its rules
    /// installed when the stream ends: no convergence point and no teardown
    /// of its session came after it.
    fn still_installed(&self, session: PeerId, trigger: usize) -> bool {
        trigger >= self.last_converged_event
            && !self
                .teardowns
                .get(&session)
                .is_some_and(|t| t.iter().any(|&d| d > trigger))
    }
}

/// An action expected from the sharded runtime, in install order.
#[derive(Debug, Clone, Copy)]
pub struct Expected {
    /// Rules this action installed.
    pub rules: u64,
    /// Rules installed by this and every earlier action (the value the
    /// applier's `installs` counter reaches once this action is in).
    pub cum_rules: u64,
    /// Event index of the triggering withdrawal.
    pub trigger: usize,
    /// The input outage the action reroutes.
    pub burst: usize,
}

/// The inline runtime's decisions: the correctness reference.
#[derive(Debug)]
pub struct Reference {
    /// Per input outage, the decisions taken for it.
    pub decisions: Vec<Vec<String>>,
    /// Actions in install order.
    pub expect: Vec<Expected>,
    /// Actions that belong to no outage of the input or no triggering event.
    pub unmapped: usize,
}

impl Reference {
    /// Builds the reference from an inline pass's actions.
    pub fn new(prep: &Prepared, actions: &[RerouteAction]) -> Self {
        let mut decisions = vec![Vec::new(); prep.input.bursts.len()];
        let mut expect = Vec::with_capacity(actions.len());
        let mut unmapped = 0;
        let mut cum = 0u64;
        for a in actions {
            cum += a.rules_installed as u64;
            let burst = prep.input.burst_of(a.session, a.time);
            let trigger = prep.trigger_of(a.session, a.time);
            match (burst, trigger) {
                (Some(burst), Some(trigger)) => {
                    decisions[burst].push(decision(a));
                    expect.push(Expected {
                        rules: a.rules_installed as u64,
                        cum_rules: cum,
                        trigger,
                        burst,
                    });
                }
                _ => unmapped += 1,
            }
        }
        Reference {
            decisions,
            expect,
            unmapped,
        }
    }

    /// Reroutes the reference took.
    pub fn reroutes(&self) -> usize {
        self.expect.len()
    }

    /// Reroutes that installed no rule: no install marks their end, so
    /// they carry no latency sample.
    pub fn unmeasured(&self) -> usize {
        self.expect.iter().filter(|e| e.rules == 0).count()
    }

    /// Input outages whose decisions in `actions` differ from the reference
    /// (missing, extra or different links or prediction size), plus actions
    /// that map to no outage at all.
    pub fn failed_bursts(&self, prep: &Prepared, actions: &[RerouteAction]) -> BTreeSet<usize> {
        let mut got = vec![Vec::new(); self.decisions.len()];
        let mut failed = BTreeSet::new();
        for a in actions {
            match prep.input.burst_of(a.session, a.time) {
                Some(b) => got[b].push(decision(a)),
                // An action outside every outage: charge it to a pseudo
                // operation past the real ones so it still counts.
                None => {
                    failed.insert(self.decisions.len() + failed.len());
                }
            }
        }
        for (b, (want, have)) in self.decisions.iter().zip(&got).enumerate() {
            if want != have {
                failed.insert(b);
            }
        }
        failed
    }
}

/// What one inline pass measured.
#[derive(Debug)]
pub struct InlinePass {
    /// First ingest to the return of the final resync.
    pub wall: Duration,
    /// Every reroute action, in order.
    pub actions: Vec<RerouteAction>,
    /// Events the runtime counted.
    pub events: u64,
}

/// Replays the input through the deterministic inline runtime.
pub fn inline_pass(prep: &Prepared) -> InlinePass {
    let input = &prep.input;
    let mut rt = ShardedRuntime::new(
        RuntimeConfig::deterministic(),
        input.swift.clone(),
        input.table.clone(),
        ReroutingPolicy::allow_all(),
    );
    let items = input.items.clone();
    let mut flaps = input.flap_routes.clone();
    let t0 = Instant::now();
    for item in items {
        match item {
            ReplayItem::Event { peer, event } => rt.ingest(peer, event),
            ReplayItem::Converged { .. } => {
                rt.resync_after_convergence();
            }
            ReplayItem::SessionDown { peer, .. } => rt.teardown_session(peer),
            ReplayItem::SessionUp { peer, .. } => {
                let (asn, routes) = take_routes(&mut flaps, peer);
                rt.register_session(peer, asn, routes);
            }
        }
    }
    rt.resync_after_convergence();
    let wall = t0.elapsed();
    let report = rt.finish();
    InlinePass {
        wall,
        actions: report.actions,
        events: report.metrics.events,
    }
}

fn take_routes(
    flaps: &mut FlapRoutes,
    peer: PeerId,
) -> (swift_bgp::Asn, Vec<(swift_bgp::Prefix, swift_bgp::Route)>) {
    let (asn, routes) = flaps.get_mut(&peer).expect("flapped session has routes");
    (*asn, std::mem::take(routes))
}

/// How the generator offers the stream to the sharded runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Load {
    /// Send the next event as soon as the previous ingest call returned.
    Closed,
    /// Send event `i` at `i / rate` seconds, in stream order.
    Paced {
        /// Offered rate, events per second.
        rate: f64,
    },
}

/// Watches the live registry for the expected installs, in order.
struct InstallWatcher<'a> {
    expect: &'a [Expected],
    next: usize,
    seen: Vec<Option<Instant>>,
    installs: Counter,
    applied: Counter,
}

impl InstallWatcher<'_> {
    /// Records every expected install the counters now show as done: its
    /// rules are counted and its triggering event has reached the applier.
    /// The applier counts an event before it installs the event's rules, so
    /// only the rule count marks an install as done; an action that
    /// installed no rule is passed over unstamped.
    fn poll(&mut self) {
        let (installs, applied) = (self.installs.get(), self.applied.get());
        let mut now = None;
        while let Some(e) = self.expect.get(self.next) {
            if installs < e.cum_rules || applied <= e.trigger as u64 {
                break;
            }
            if e.rules > 0 {
                self.seen[self.next] = Some(*now.get_or_insert_with(Instant::now));
            }
            self.next += 1;
        }
    }
}

/// Per-call timing of the sharded runtime's public calls (traced run only).
#[derive(Debug)]
pub struct RuntimeSpans {
    /// Spans around flush, resync and session calls.
    pub tracer: Tracer,
    /// Time inside ingest calls, ns.
    pub ingest_ns: u64,
    /// Longest ingest call, ns.
    pub ingest_max_ns: u64,
    flush: u16,
    resync: u16,
    session: u16,
}

impl RuntimeSpans {
    /// Span names of the runtime's public calls.
    pub const FLUSH: &'static str = "runtime.flush";
    /// See [`RuntimeSpans::FLUSH`].
    pub const RESYNC: &'static str = "runtime.resync";
    /// See [`RuntimeSpans::FLUSH`].
    pub const SESSION: &'static str = "runtime.session";

    /// An empty record.
    pub fn new() -> Self {
        let mut tracer = Tracer::new();
        let [flush, resync, session] =
            [Self::FLUSH, Self::RESYNC, Self::SESSION].map(|n| tracer.name(n));
        RuntimeSpans {
            tracer,
            ingest_ns: 0,
            ingest_max_ns: 0,
            flush,
            resync,
            session,
        }
    }
}

impl Default for RuntimeSpans {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs `f`, inside a span named by `pick` when the pass is traced.
fn timed<T>(
    spans: &mut Option<&mut RuntimeSpans>,
    pick: fn(&RuntimeSpans) -> u16,
    f: impl FnOnce() -> T,
) -> T {
    match spans {
        Some(s) => {
            let name = pick(s);
            s.tracer.span(name, NONE, f)
        }
        None => f(),
    }
}

/// What one sharded pass measured.
#[derive(Debug)]
pub struct ShardedPass {
    /// `ShardedRuntime::new` wall time.
    pub setup: Duration,
    /// First ingest to the return of the final resync.
    pub wall: Duration,
    /// Reroute latency per expected action that installed rules (`None`:
    /// never seen), ms.
    pub reroute_ms: Vec<Option<f64>>,
    /// Reaction latency per expected action, ms.
    pub reaction_ms: Vec<Option<f64>>,
    /// How late each ingest call started against its schedule, ms (open
    /// loop only).
    pub lag_ms: Vec<f64>,
    /// Input outages that failed (decision mismatch or unsafe reroute).
    pub failed: BTreeSet<usize>,
    /// Unsafe reroutes found among the actions still installed at the end.
    pub unsafe_reroutes: usize,
    /// Installed reroutes the safety check covered.
    pub safety_checked: usize,
    /// Resident memory when the pass started: the input the benchmark
    /// holds, MB.
    pub held_mb: f64,
    /// Peak resident memory the runtime added on top of `held_mb`, MB.
    pub runtime_mb: f64,
    /// The runtime's final report.
    pub report: RuntimeReport,
}

/// Replays the input through the sharded runtime under `load`, watching the
/// registry for each expected install. With `spans`, every public call is
/// timed (the traced run); the final resync is timed either way.
pub fn sharded_pass(
    prep: &Prepared,
    reference: &Reference,
    load: Load,
    mut spans: Option<&mut RuntimeSpans>,
) -> Result<ShardedPass, String> {
    let input = &prep.input;
    // Latencies are measured from the due time of two events per expected
    // reroute: the outage's first withdrawal and the triggering one. Events
    // arrive in index order, so a cursor finds the next marked one.
    let mut marked: Vec<usize> = reference
        .expect
        .iter()
        .flat_map(|e| [e.trigger, input.bursts[e.burst].first_event])
        .collect();
    marked.sort_unstable();
    marked.dedup();
    let mut marks: Vec<Option<Instant>> = vec![None; marked.len()];
    let mut next_mark = 0usize;
    let mut pacer = match load {
        Load::Paced { rate } => Some(Pacer::new(rate)),
        Load::Closed => None,
    };
    let mut lag_ms = Vec::with_capacity(if pacer.is_some() { input.events } else { 0 });
    let items = input.items.clone();
    let mut flaps = input.flap_routes.clone();

    // Everything the benchmark keeps for the pass is allocated by now; the
    // routing table handed to the runtime is the router's own memory.
    let held_mb = crate::mem::reset_peak()?;
    let table = input.table.clone();
    let t_setup = Instant::now();
    let mut rt = ShardedRuntime::new(
        sharded_config(),
        input.swift.clone(),
        table,
        ReroutingPolicy::allow_all(),
    );
    let setup = t_setup.elapsed();
    let registry = rt.registry();
    let mut watch = InstallWatcher {
        expect: &reference.expect,
        next: 0,
        seen: vec![None; reference.expect.len()],
        installs: registry.counter("applier.0.installs"),
        applied: registry.counter("applier.0.events"),
    };

    let mut ev = 0usize;
    let t0 = Instant::now();
    for item in items {
        let marker = !matches!(item, ReplayItem::Event { .. });
        match item {
            ReplayItem::Event { peer, event } => {
                let is_marked = marked.get(next_mark) == Some(&ev);
                if let Some(p) = &pacer {
                    let due = p.due_at(ev);
                    wait_until(t0, due, &mut watch);
                    lag_ms.push(ms(lateness(due, nanos(t0.elapsed()))));
                    if is_marked {
                        marks[next_mark] = Some(t0 + Duration::from_nanos(due));
                    }
                } else if is_marked {
                    // Closed loop: an event is due when the generator gets
                    // to it.
                    marks[next_mark] = Some(Instant::now());
                }
                next_mark += usize::from(is_marked);
                if let Some(s) = spans.as_mut() {
                    let t = Instant::now();
                    rt.ingest(peer, event);
                    let d = nanos(t.elapsed());
                    s.ingest_ns += d;
                    s.ingest_max_ns = s.ingest_max_ns.max(d);
                } else {
                    rt.ingest(peer, event);
                }
                ev += 1;
                // Every 16th event: the counters live on the applier's
                // cache lines, and a closed loop would bounce them per event.
                if ev % 16 == 0 {
                    watch.poll();
                }
            }
            ReplayItem::Converged { .. } => {
                // Installs the flush completes are seen before the resync.
                timed(&mut spans, |s| s.flush, || rt.flush());
                watch.poll();
                timed(&mut spans, |s| s.resync, || rt.resync_after_convergence());
                watch.poll();
            }
            ReplayItem::SessionDown { peer, .. } => {
                timed(&mut spans, |s| s.session, || rt.teardown_session(peer));
            }
            ReplayItem::SessionUp { peer, .. } => {
                let (asn, routes) = take_routes(&mut flaps, peer);
                timed(
                    &mut spans,
                    |s| s.session,
                    || rt.register_session(peer, asn, routes),
                );
            }
        }
        // A marker stands for a quiet stretch of the trace (a convergence
        // gap or a session flap): the schedule resumes when it returns.
        if let (true, Some(p)) = (marker, pacer.as_mut()) {
            p.resume_at(ev, nanos(t0.elapsed()));
        }
    }
    rt.flush();
    watch.poll();
    let report = rt.finish();
    let drained = t0.elapsed();
    let runtime_mb = crate::mem::peak_mb()? - held_mb;

    // The final resync runs on a copy of the applier the report returned:
    // the copy is first synced and checked for unsafe reroutes while the
    // last segment's rules are still installed, then resynced. The resync's
    // two halves are timed into the wall, the copy and the check are not.
    let mut applier = report.appliers()[0].clone();
    let t = Instant::now();
    applier.sync_rib();
    let fold = t.elapsed();
    let mut failed = reference.failed_bursts(prep, &report.actions);
    let mut unsafe_reroutes = 0;
    let mut safety_checked = 0;
    for a in &report.actions {
        let Some(trigger) = prep.trigger_of(a.session, a.time) else {
            continue;
        };
        if !prep.still_installed(a.session, trigger) {
            continue;
        }
        safety_checked += 1;
        // Only prefixes actually moved off the session count: one without
        // an eligible backup keeps its primary next-hop, as plain BGP would.
        let moved_unsafe = applier
            .unsafe_reroutes(&a.predicted, &a.links)
            .iter()
            .any(|p| applier.forwarding_next_hop(p) != Some(a.session));
        if moved_unsafe {
            unsafe_reroutes += 1;
            if let Some(b) = input.burst_of(a.session, a.time) {
                failed.insert(b);
            }
        }
    }
    let t = Instant::now();
    applier.resync_after_convergence();
    let wall = drained + fold + t.elapsed();
    drop(applier);

    // Reroutes that installed no rule have no install to see: no sample.
    let (mut reroute_ms, mut reaction_ms) = (Vec::new(), Vec::new());
    for (e, seen) in reference.expect.iter().zip(&watch.seen) {
        if e.rules == 0 {
            continue;
        }
        let first = input.bursts[e.burst].first_event;
        let since = |i: usize| -> Option<f64> {
            let seen = (*seen)?;
            let due = marks[marked.binary_search(&i).ok()?]?;
            Some(ms(nanos(seen.saturating_duration_since(due))))
        };
        reroute_ms.push(since(first));
        reaction_ms.push(since(e.trigger));
    }
    Ok(ShardedPass {
        setup,
        wall,
        reroute_ms,
        reaction_ms,
        lag_ms,
        failed,
        unsafe_reroutes,
        safety_checked,
        held_mb,
        runtime_mb,
        report,
    })
}

/// Sleeps until `due` ns after `t0`, polling the install counters at each
/// wake-up. The sleep's own granularity makes this a tick: when it returns,
/// every event that fell due meanwhile is sent back to back.
fn wait_until(t0: Instant, due: u64, watch: &mut InstallWatcher<'_>) {
    loop {
        let now = nanos(t0.elapsed());
        if now >= due {
            return;
        }
        watch.poll();
        std::thread::sleep(Duration::from_nanos(due - now));
    }
}

/// Constructs and immediately shuts down a sharded runtime, timing the
/// construction: an extra `setup_s` sample, taken from the same trimmed
/// heap as a sharded pass's.
pub fn setup_only(input: &Input) -> Duration {
    crate::mem::trim_heap();
    let table = input.table.clone();
    let t = Instant::now();
    let rt = ShardedRuntime::new(
        sharded_config(),
        input.swift.clone(),
        table,
        ReroutingPolicy::allow_all(),
    );
    let setup = t.elapsed();
    drop(rt.finish());
    setup
}

/// Nanoseconds of a duration.
pub fn nanos(d: Duration) -> u64 {
    d.as_nanos() as u64
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
