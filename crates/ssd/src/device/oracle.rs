//! The booking oracle: `schedule_ops` as it was before it walked runs — one
//! accept, one span and one blame entry per flash op — kept as the reference
//! every batch the crate's tests schedule is checked against.
//!
//! [`Reference::book`] books the batch per op on copies of the device's
//! queues before the device books it in runs; [`Reference::check`] then
//! holds the device to the copy: the returned times, the [`SsdStats`], every
//! queue (pending starts expanded, ledgers compared by how they split
//! waits) and the critical chain.  The spans the reference would have
//! emitted are logged per thread for tests to set against a `Recorder`.

use std::cell::{Cell, RefCell};

use super::*;

/// A span as `telemetry.span` takes it.
pub(super) type Span = (SimTime, SimTime, Track, EventKind, u64, u64);

thread_local! {
    /// Ops the device booked on this thread, and how many of them as part
    /// of a run of two or more (tests assert the oracle saw runs).
    pub(super) static BOOKED: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// The spans of every traced batch booked on this thread.
    pub(super) static SPANS: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
}

/// What booking a batch one op at a time leaves behind.
pub(super) struct Reference {
    elements: Vec<ElementQueue>,
    buses: Vec<ElementQueue>,
    stats: SsdStats,
    /// The critical chain, with attribution on.
    chain: Option<BlameBreakdown>,
    owner: u64,
    times: (SimTime, SimTime),
}

impl Reference {
    pub(super) fn book(ssd: &Ssd, ops: &[FlashOp], floor: SimTime) -> Reference {
        let elements_per_gang = ssd.config.elements_per_gang() as usize;
        let mut elements = ssd.elements.clone();
        let mut buses = ssd.buses.clone();
        let mut stats = ssd.stats;
        let traced = ssd.telemetry.is_enabled();
        let owner = ssd.attribution.as_deref().map(|a| a.next_owner);
        let mut blames: Vec<OpBlame> = Vec::new();
        let mut host_finish = floor;
        let mut any_finish = floor;
        let mut service_begin = SimTime::MAX;
        for op in ops {
            let element = op.element.index();
            let gang = element / elements_per_gang;
            let purpose = op.purpose.telemetry_code();
            let source = blame_source(op);
            let mut op_blame = owner.map(|_| BlameBreakdown::new());
            let mut finish = floor;
            let mut busy = SimDuration::ZERO;
            for stage in ssd.stages[op.kind as usize].iter().flatten() {
                let (queue, track, own_cat) = if stage.on_bus {
                    (
                        &mut buses[gang],
                        Track::Bus(gang as u32),
                        own_bus_cat(source),
                    )
                } else {
                    (
                        &mut elements[element],
                        Track::Element(element as u32),
                        own_element_cat(source),
                    )
                };
                let (svc, _) = accept_blamed(
                    queue,
                    finish,
                    stage.service,
                    1,
                    own_cat,
                    owner.unwrap_or(0),
                    source,
                    op_blame.as_mut(),
                );
                if traced {
                    SPANS.with_borrow_mut(|spans| {
                        spans.push((
                            svc.start,
                            svc.completion,
                            track,
                            stage.event,
                            purpose,
                            element as u64,
                        ));
                    });
                }
                service_begin = service_begin.min(svc.start);
                finish = svc.completion;
                busy += stage.service;
            }
            any_finish = any_finish.max(finish);
            let mut foreground = false;
            match op.purpose {
                OpPurpose::Clean => {
                    stats.cleaning_busy = stats.cleaning_busy.saturating_add(busy);
                }
                OpPurpose::BackgroundClean => {
                    stats.background_cleaning_busy =
                        stats.background_cleaning_busy.saturating_add(busy);
                }
                OpPurpose::WearLevel => {
                    stats.wear_level_busy = stats.wear_level_busy.saturating_add(busy);
                }
                _ => {
                    stats.host_busy = stats.host_busy.saturating_add(busy);
                    host_finish = host_finish.max(finish);
                    foreground = true;
                }
            }
            if let Some(blame) = op_blame {
                blames.push(OpBlame {
                    blame,
                    finish,
                    foreground,
                });
            }
        }
        if service_begin == SimTime::MAX {
            service_begin = floor;
        }
        let finish = if host_finish > floor {
            host_finish
        } else {
            any_finish
        };
        // The last op finishing with the batch, a foreground one if any.
        let critical = blames
            .iter()
            .filter(|ob| ob.finish == finish)
            .reduce(|pick, ob| {
                if ob.foreground || !pick.foreground {
                    ob
                } else {
                    pick
                }
            });
        let chain = owner.map(|_| critical.map_or_else(BlameBreakdown::new, |ob| ob.blame));
        Reference {
            elements,
            buses,
            stats,
            chain,
            owner: owner.unwrap_or(0),
            times: (service_begin, finish),
        }
    }

    pub(super) fn check(
        self,
        ssd: &Ssd,
        ops: &[FlashOp],
        floor: SimTime,
        times: (SimTime, SimTime),
    ) {
        assert_eq!(
            times, self.times,
            "(begin, finish) of {ops:?} from {floor:?}"
        );
        assert_eq!(ssd.stats, self.stats, "stats after {ops:?}");
        for (kind, booked, reference) in [
            ("element", &ssd.elements, &self.elements),
            ("bus", &ssd.buses, &self.buses),
        ] {
            for (i, (queue, expected)) in booked.iter().zip(reference).enumerate() {
                queue.assert_booked_like(expected, floor, self.owner, &format!("{kind} {i}"));
            }
        }
        assert_eq!(
            ssd.attribution.as_deref().map(|a| a.chain),
            self.chain,
            "critical chain of {ops:?} from {floor:?}"
        );
        let in_runs: usize = ops
            .chunk_by(|a, b| a == b)
            .filter(|run| run.len() > 1 && ssd.stages[run[0].kind as usize][1].is_none())
            .map(|run| run.len())
            .sum();
        BOOKED.with(|b| {
            let (ops_seen, runs_seen) = b.get();
            b.set((ops_seen + ops.len() as u64, runs_seen + in_runs as u64));
        });
    }
}
