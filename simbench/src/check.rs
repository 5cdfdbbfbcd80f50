//! Output checks, computed apart from the simulator.
//!
//! [`CheckingObserver`] follows a run's event stream and keeps its own
//! ledger of generated messages, deliveries and frames; [`problems`]
//! compares that ledger and the method's invariants with the run's
//! [`SimReport`]. [`same`] is the bit-for-bit equality every timed rep,
//! branch and cell is held to against its checked warm-up.

use std::collections::HashMap;

use mlora_sim::observer::events::{FrameTransmitted, MessageDelivered, MessageGenerated};
use mlora_sim::{SimObserver, SimReport};
use mlora_simcore::{MessageId, NodeId, SimDuration, SimTime};

/// At most this many problem descriptions are kept per run.
const MAX_PROBLEMS: usize = 8;

/// One transmitted frame, as the trace replays need it.
#[derive(Debug, Clone, Copy)]
pub struct FrameRecord {
    pub time: SimTime,
    pub sender: NodeId,
    pub airtime: SimDuration,
    pub payload_bytes: usize,
    pub bundled: usize,
}

/// Follows a run's event stream and records what the checks need.
#[derive(Debug, Default)]
pub struct CheckingObserver {
    /// Under NoRouting every delivery is one direct uplink.
    no_routing: bool,
    generated: HashMap<MessageId, (SimTime, NodeId)>,
    generated_events: u64,
    deliveries: u64,
    frames: u64,
    handover_frames: u64,
    bundled: u64,
    last_time: SimTime,
    /// Every frame, kept only when `record_frames` was asked for.
    pub frames_log: Option<Vec<FrameRecord>>,
    problems: Vec<String>,
}

impl CheckingObserver {
    pub fn new(no_routing: bool) -> Self {
        CheckingObserver {
            no_routing,
            ..CheckingObserver::default()
        }
    }

    /// Also keeps every frame for the trace replays.
    pub fn record_frames(mut self) -> Self {
        self.frames_log = Some(Vec::new());
        self
    }

    fn problem(&mut self, text: String) {
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(text);
        }
    }

    /// Events arrive in time order.
    fn at(&mut self, t: SimTime) {
        if t < self.last_time {
            self.problem(format!("event at {t} after one at {}", self.last_time));
        }
        self.last_time = t;
    }
}

impl SimObserver for CheckingObserver {
    fn on_message_generated(&mut self, ev: &MessageGenerated) {
        self.at(ev.time);
        self.generated_events += 1;
        if self
            .generated
            .insert(ev.message, (ev.time, ev.device))
            .is_some()
        {
            self.problem(format!("message {:?} generated twice", ev.message));
        }
    }

    fn on_frame_tx(&mut self, ev: &FrameTransmitted) {
        self.at(ev.time);
        self.frames += 1;
        self.handover_frames += ev.handover_target.is_some() as u64;
        self.bundled += ev.bundled as u64;
        if let Some(log) = self.frames_log.as_mut() {
            log.push(FrameRecord {
                time: ev.time,
                sender: ev.sender,
                airtime: ev.airtime,
                payload_bytes: ev.payload_bytes,
                bundled: ev.bundled,
            });
        }
    }

    fn on_delivery(&mut self, ev: &MessageDelivered) {
        self.at(ev.time);
        self.deliveries += 1;
        match self.generated.get(&ev.message).copied() {
            None => self.problem(format!(
                "message {:?} delivered but never generated",
                ev.message
            )),
            Some((born, origin)) => {
                if origin != ev.origin {
                    self.problem(format!(
                        "message {:?} delivered from {:?}, generated by {:?}",
                        ev.message, ev.origin, origin
                    ));
                }
                if born > ev.time || ev.time - born != ev.delay {
                    self.problem(format!(
                        "message {:?}: generated {born}, delivered {}, delay {:?}",
                        ev.message, ev.time, ev.delay
                    ));
                }
            }
        }
        if ev.hops < 1 || (self.no_routing && ev.hops != 1) {
            self.problem(format!(
                "message {:?} delivered over {} hops",
                ev.message, ev.hops
            ));
        }
    }
}

/// Everything wrong with `report` given the event stream `obs` saw.
pub fn problems(obs: &CheckingObserver, r: &SimReport) -> Vec<String> {
    let mut out = obs.problems.clone();
    let mut need = |ok: bool, what: String| {
        if !ok {
            out.push(what);
        }
    };
    need(
        obs.deliveries == r.delivered,
        format!(
            "{} delivery events, report says {}",
            obs.deliveries, r.delivered
        ),
    );
    need(
        obs.generated_events == r.generated,
        format!(
            "{} generation events, report says {}",
            obs.generated_events, r.generated
        ),
    );
    need(
        r.delivered <= r.generated,
        format!("delivered {} > generated {}", r.delivered, r.generated),
    );
    // Copies of one message can be stranded on several buses, so the
    // fates overlap; none may go missing.
    need(
        r.delivered + r.stranded + r.queue_drops >= r.generated,
        format!(
            "delivered {} + stranded {} + dropped {} < generated {}",
            r.delivered, r.stranded, r.queue_drops, r.generated
        ),
    );
    need(
        r.messages_sent >= r.frames_sent,
        format!(
            "messages sent {} < frames sent {}",
            r.messages_sent, r.frames_sent
        ),
    );
    need(
        obs.frames == r.frames_sent,
        format!("{} frame events, report says {}", obs.frames, r.frames_sent),
    );
    need(
        obs.handover_frames == r.handover_frames,
        format!(
            "{} handover frame events, report says {}",
            obs.handover_frames, r.handover_frames
        ),
    );
    need(
        obs.bundled == r.messages_sent,
        format!(
            "{} bundled messages seen, report says {}",
            obs.bundled, r.messages_sent
        ),
    );
    need(
        !obs.no_routing || r.handover_frames == 0,
        format!("NoRouting sent {} handover frames", r.handover_frames),
    );
    out
}

/// Bit-for-bit equality of two reports: every field equal, and the same
/// shortest round-trip text for every float.
pub fn same(a: &SimReport, b: &SimReport) -> bool {
    a == b && format!("{a:?}") == format!("{b:?}")
}

/// Prints `what` under `label` unless `ok`; returns `ok`.
pub fn expect(label: &str, ok: bool, what: &str) -> bool {
    report(
        label,
        &if ok {
            Vec::new()
        } else {
            vec![what.to_string()]
        },
    )
}

/// Prints `problems` under `label` and says whether there were none.
pub fn report(label: &str, problems: &[String]) -> bool {
    for p in problems {
        eprintln!("simbench: check failed in {label}: {p}");
    }
    problems.is_empty()
}
