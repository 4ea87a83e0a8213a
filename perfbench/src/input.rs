//! Workload inputs, generated from the seed and materialised in full before
//! any clock starts: replay items, volley rounds and their recovery
//! announcements all sit in one `Vec` so no generation work runs inside a
//! timed region.

use std::collections::BTreeMap;
use swift_bgp::{Asn, ElementaryEvent, PeerId, Prefix, Route, RoutingTable, Timestamp, SECOND};
use swift_core::{EncodingConfig, InferenceConfig, SwiftConfig};
use swift_traces::corpus::{Corpus, TraceConfig};
use swift_traces::interleave::{MultiSessionConfig, MultiSessionTrace};
use swift_traces::soak::{pick_feasible_flaps, ReplayItem, SoakConfig, SoakReplay};

/// A flapped session's re-registration payload.
pub type FlapRoutes = BTreeMap<PeerId, (Asn, Vec<(Prefix, Route)>)>;

/// Sizing of the `soak` input (also replayed, paced, by `paced`).
#[derive(Debug, Clone, PartialEq)]
pub struct SoakParams {
    /// Peering sessions.
    pub sessions: usize,
    /// Prefixes per session table.
    pub prefixes: usize,
    /// Mean bursts per session.
    pub bursts: f64,
    /// Session flaps (teardown + re-register) scheduled.
    pub flaps: usize,
}

impl Default for SoakParams {
    fn default() -> Self {
        SoakParams {
            sessions: 48,
            prefixes: 10_000,
            bursts: 4.0,
            flaps: 2,
        }
    }
}

/// Sizing of the `volley` input.
#[derive(Debug, Clone, PartialEq)]
pub struct VolleyParams {
    /// Peering sessions, each losing its heaviest link every round.
    pub sessions: usize,
    /// Prefixes per session (the vantage table holds `sessions ×` this).
    pub prefixes: usize,
    /// Withdrawals per session per round (capped by the heaviest link).
    pub burst: usize,
    /// Rounds of outage + recovery.
    pub rounds: usize,
}

impl Default for VolleyParams {
    fn default() -> Self {
        VolleyParams {
            sessions: 16,
            prefixes: 62_500,
            burst: 8_000,
            rounds: 4,
        }
    }
}

/// One ground-truth outage of the input: the first withdrawal a session
/// received for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Burst {
    /// The session that saw the outage.
    pub session: PeerId,
    /// Index (among events only) of the outage's first withdrawal.
    pub first_event: usize,
    /// Timestamp of that withdrawal.
    pub first_ts: Timestamp,
}

/// A fully materialised workload input.
#[derive(Debug)]
pub struct Input {
    /// The vantage router's routing table at the start of the stream.
    pub table: RoutingTable,
    /// Inference and encoding configuration.
    pub swift: SwiftConfig,
    /// The stream: events plus lifecycle and convergence markers.
    pub items: Vec<ReplayItem>,
    /// Routes re-registered when a flapped session comes back.
    pub flap_routes: FlapRoutes,
    /// Number of events (items that are not markers).
    pub events: usize,
    /// Ground-truth outages, sorted by `(session, first_ts)`.
    pub bursts: Vec<Burst>,
    /// One line describing the input's size, for the report.
    pub describe: String,
}

impl Input {
    /// The outage an action at `time` on `session` belongs to: the session's
    /// latest outage whose first withdrawal is not after `time`.
    pub fn burst_of(&self, session: PeerId, time: Timestamp) -> Option<usize> {
        let lo = self.bursts.partition_point(|b| b.session < session);
        let hi = self.bursts.partition_point(|b| b.session <= session);
        let within = self.bursts[lo..hi].partition_point(|b| b.first_ts <= time);
        (within > 0).then(|| lo + within - 1)
    }
}

/// SplitMix64: spreads small command-line seeds over the generator seeds.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The soak replay: the corpus's sessions, bursts, noise, path updates,
/// convergence points and session flaps, with thresholds scaled to the
/// table size as the `exp_soak` smoke tier scales them.
pub fn soak(params: &SoakParams, seed: u64) -> Input {
    let corpus = Corpus::generate(TraceConfig {
        num_peers: params.sessions,
        table_size: params.prefixes,
        bursts_per_peer_mean: params.bursts,
        seed: mix(seed, 1),
        ..TraceConfig::default()
    });
    let scale = params.prefixes / 20;
    let swift = SwiftConfig {
        inference: InferenceConfig {
            burst_start_threshold: scale,
            burst_stop_threshold: 2,
            triggering_threshold: 2 * scale,
            use_history: false,
            ..Default::default()
        },
        encoding: EncodingConfig {
            min_prefixes_per_link: scale,
            ..Default::default()
        },
    };
    let flaps = pick_feasible_flaps(&corpus, params.flaps);
    let replay = SoakReplay::new(
        &corpus,
        SoakConfig {
            flaps: flaps.clone(),
            ..SoakConfig::default()
        },
    );
    let table = replay.vantage_table();
    let flap_routes: FlapRoutes = flaps
        .iter()
        .map(|&(session, _)| {
            let (peer, asn) = replay
                .session_peers()
                .nth(session)
                .expect("flapped session");
            let routes = replay.session_routes(peer).expect("session routes");
            (peer, (asn, routes))
        })
        .collect();
    let items: Vec<ReplayItem> = replay.collect();

    // Ground truth: each catalogued burst starts with the session's first
    // withdrawal at or after the burst's start time.
    let mut starts: BTreeMap<PeerId, Vec<Timestamp>> = BTreeMap::new();
    for idx in 0..corpus.num_sessions() {
        let meta = corpus.session_meta(idx);
        let mut s: Vec<Timestamp> = meta.bursts.iter().map(|b| b.start).collect();
        s.sort_unstable();
        starts.insert(meta.peer, s);
    }
    let bursts = first_withdrawals(&items, &starts);
    let events = count_events(&items);
    let describe = format!(
        "soak: {} sessions x {} prefixes, {} bursts, {} events, {} flaps, thresholds {}/{}",
        params.sessions,
        params.prefixes,
        bursts.len(),
        events,
        flaps.len(),
        scale,
        2 * scale
    );
    Input {
        table,
        swift,
        items,
        flap_routes,
        events,
        bursts,
        describe,
    }
}

/// Maps each session's burst start times onto the first withdrawal the
/// session received at or after it.
fn first_withdrawals(
    items: &[ReplayItem],
    starts: &BTreeMap<PeerId, Vec<Timestamp>>,
) -> Vec<Burst> {
    let mut next: BTreeMap<PeerId, usize> = starts.keys().map(|p| (*p, 0)).collect();
    let mut bursts = Vec::new();
    let mut ev = 0usize;
    for item in items {
        let ReplayItem::Event { peer, event } = item else {
            continue;
        };
        if let (Some(list), ElementaryEvent::Withdraw { timestamp, .. }) = (starts.get(peer), event)
        {
            let cursor = next.get_mut(peer).expect("cursor per session");
            let mut opened = false;
            while *cursor < list.len() && list[*cursor] <= *timestamp {
                *cursor += 1;
                opened = true;
            }
            if opened {
                bursts.push(Burst {
                    session: *peer,
                    first_event: ev,
                    first_ts: *timestamp,
                });
            }
        }
        ev += 1;
    }
    bursts.sort_by_key(|b| (b.session, b.first_ts));
    bursts
}

fn count_events(items: &[ReplayItem]) -> usize {
    items
        .iter()
        .filter(|i| matches!(i, ReplayItem::Event { .. }))
        .count()
}

/// The volley: every session loses its heaviest link at once, the paper's
/// default thresholds, repeated for several rounds. Each round's withdrawals
/// are followed (after a quiet window that ends the burst) by announcements
/// restoring every withdrawn route and a convergence point, so every round
/// starts from the same routing state.
pub fn volley(params: &VolleyParams, seed: u64) -> Input {
    let trace = MultiSessionTrace::generate(&MultiSessionConfig {
        sessions: params.sessions,
        prefixes_per_session: params.prefixes,
        burst_size: params.burst,
        event_gap: swift_bgp::MILLISECOND,
        backup_coverage: 0.95,
        seed: mix(seed, 2),
    });
    let table = trace.table;
    let round_events: Vec<(PeerId, ElementaryEvent)> = trace
        .events
        .into_iter()
        .map(|e| (e.peer, e.event))
        .collect();
    let last_ts = round_events
        .iter()
        .map(|(_, e)| e.timestamp())
        .max()
        .unwrap_or(0);
    // Recovery starts after a quiet window longer than the burst window, so
    // the detector has closed the burst; the next round starts after the
    // recovery plus the same gap.
    let quiet = 30 * SECOND;
    let recover_at = last_ts + quiet;
    let round_len = recover_at + last_ts + quiet;

    let mut items = Vec::with_capacity(2 * round_events.len() * params.rounds + params.rounds);
    let mut bursts = Vec::new();
    let mut ev = 0usize;
    let flapped = trace.failed_links.keys().next_back().copied();
    let flap_routes: FlapRoutes = flapped
        .into_iter()
        .map(|peer| {
            let asn = table.peer_asn(peer).expect("session peer is in the table");
            let routes = table
                .adj_rib_in(peer)
                .expect("session peer has a RIB")
                .iter()
                .map(|(p, r)| (*p, r.clone()))
                .collect();
            (peer, (asn, routes))
        })
        .collect();
    for round in 0..params.rounds {
        let base = round as Timestamp * round_len;
        let mut seen: BTreeMap<PeerId, ()> = BTreeMap::new();
        for (peer, event) in &round_events {
            let ElementaryEvent::Withdraw { timestamp, prefix } = event else {
                continue;
            };
            let timestamp = base + timestamp;
            if seen.insert(*peer, ()).is_none() {
                bursts.push(Burst {
                    session: *peer,
                    first_event: ev,
                    first_ts: timestamp,
                });
            }
            items.push(ReplayItem::Event {
                peer: *peer,
                event: ElementaryEvent::Withdraw {
                    timestamp,
                    prefix: *prefix,
                },
            });
            ev += 1;
        }
        for (peer, event) in &round_events {
            let route = table
                .adj_rib_in(*peer)
                .and_then(|rib| rib.get(&event.prefix()))
                .expect("withdrawn prefixes come from the session's table");
            items.push(ReplayItem::Event {
                peer: *peer,
                event: ElementaryEvent::Announce {
                    timestamp: base + recover_at + event.timestamp(),
                    prefix: event.prefix(),
                    attrs: route.attrs.clone(),
                },
            });
            ev += 1;
        }
        // The last round's convergence is the pass's final resync, which
        // runs after the safety check of the rules still installed. Between
        // rounds one session flaps in the quiet gap: torn down and
        // re-registered with its full table.
        if round + 1 < params.rounds {
            let time = base + round_len - 1;
            items.push(ReplayItem::Converged { time });
            if let Some(peer) = flapped {
                items.push(ReplayItem::SessionDown { time, peer });
                items.push(ReplayItem::SessionUp { time, peer });
            }
        }
    }
    bursts.sort_by_key(|b| (b.session, b.first_ts));
    let describe = format!(
        "volley: {} sessions x {} prefixes, {} withdrawals per session per round, {} rounds, {} events",
        params.sessions,
        params.prefixes,
        round_events.len() / params.sessions.max(1),
        params.rounds,
        ev
    );
    Input {
        table,
        swift: SwiftConfig::default(),
        items,
        flap_routes,
        events: ev,
        bursts,
        describe,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_reproducible_from_the_seed() {
        let small = SoakParams {
            sessions: 4,
            prefixes: 3_000,
            bursts: 2.0,
            flaps: 1,
        };
        let a = soak(&small, 7);
        let b = soak(&small, 7);
        let c = soak(&small, 8);
        assert_eq!(a.items, b.items);
        assert_ne!(a.items, c.items);
        assert_eq!(a.events, count_events(&a.items));
        assert!(!a.bursts.is_empty());
    }

    #[test]
    fn volley_rounds_withdraw_then_restore() {
        let input = volley(
            &VolleyParams {
                sessions: 2,
                prefixes: 4_000,
                burst: 300,
                rounds: 3,
            },
            1,
        );
        assert_eq!(
            input.bursts.len(),
            2 * 3,
            "one outage per session per round"
        );
        let converged = input
            .items
            .iter()
            .filter(|i| matches!(i, ReplayItem::Converged { .. }))
            .count();
        assert_eq!(
            converged, 2,
            "the final round ends with the pass's own resync"
        );
        let flaps = input
            .items
            .iter()
            .filter(|i| matches!(i, ReplayItem::SessionUp { .. }))
            .count();
        assert_eq!(flaps, 2, "one session flaps between rounds");
        assert_eq!(
            input.flap_routes.values().next().map(|r| r.1.len()),
            Some(4_000)
        );
        let (mut w, mut a) = (0, 0);
        let mut last = 0;
        for item in &input.items {
            if let ReplayItem::Event { event, .. } = item {
                assert!(event.timestamp() >= last, "stream is time-ordered");
                last = event.timestamp();
                if event.is_withdraw() {
                    w += 1;
                } else {
                    a += 1;
                }
            }
        }
        assert_eq!(w, a, "every withdrawn route is restored");
        // An action is mapped to the latest outage of its session.
        let b = input.bursts[1];
        assert_eq!(input.burst_of(b.session, b.first_ts + 5), Some(1));
        assert_eq!(input.burst_of(b.session, 0), Some(0));
    }
}
