//! Spans recorded from outside each layer, around calls into its public
//! API: a policy wrapper, a recorder wrapper, and (in `replay.rs`) a
//! standalone buffer cache.

use ff_base::json::Value;
use ff_base::SimTime;
use ff_device::ServiceOutcome;
use ff_policy::{AppRequest, FaultNotice, Policy, PolicyCtx, Source, StageReport};
use ff_profile::Profile;
use ff_sim::record::Device;
use ff_sim::{CountingRecorder, Event, EventLog, Recorder};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// The layer boundary a span was recorded at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One whole cell run in the engine (`Simulation::run_recorded`).
    Sim,
    /// `Policy::select`.
    Select,
    /// `Policy::observe`.
    Observe,
    /// `Policy::on_stage_end`.
    StageEnd,
    /// `Policy::on_fault`, `inject_profile` and `on_external_disk`.
    Fault,
    /// `Recorder::record`.
    Record,
    /// One cell's standalone cache replay.
    Replay,
    /// `BufferCache::read` during the replay.
    CacheRead,
    /// `BufferCache::write` during the replay.
    CacheWrite,
    /// `BufferCache::flush_due` / `flush_all` during the replay.
    CacheFlush,
}

impl Layer {
    /// Stable name used in the span dump.
    pub fn label(self) -> &'static str {
        match self {
            Layer::Sim => "sim.run",
            Layer::Select => "policy.select",
            Layer::Observe => "policy.observe",
            Layer::StageEnd => "policy.stage_end",
            Layer::Fault => "policy.fault",
            Layer::Record => "record",
            Layer::Replay => "cache.replay",
            Layer::CacheRead => "cache.read",
            Layer::CacheWrite => "cache.write",
            Layer::CacheFlush => "cache.flush",
        }
    }

    /// True for the spans that measure time inside the policy.
    pub fn is_policy(self) -> bool {
        matches!(
            self,
            Layer::Select | Layer::Observe | Layer::StageEnd | Layer::Fault
        )
    }
}

/// One timed call. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Where the span was taken.
    pub layer: Layer,
    /// Index of the cell in its workload.
    pub cell: usize,
    /// Call start.
    pub start_ns: u64,
    /// Call end.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store shared by the wrappers of one traced pass.
pub struct Tracer {
    origin: Instant,
    /// Spans in the order they were opened.
    pub spans: Vec<Span>,
}

/// Handle the wrappers hold; the engine owns the wrappers, so the store
/// is shared rather than borrowed.
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    /// A fresh store whose clock starts now.
    pub fn shared() -> SharedTracer {
        Rc::new(RefCell::new(Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }))
    }

    /// Nanoseconds since the store was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span that encloses later ones; close it with [`Tracer::close`].
    pub fn open(&mut self, layer: Layer, cell: usize, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            cell,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Close a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        self.spans[id].end_ns = end;
    }

    /// The spans as JSON lines: `id`, `layer`, `cell`, `start_ns`,
    /// `end_ns`, `parent` (`null` for a top-level span).
    pub fn to_jsonl(&self, pass: usize, cell_keys: &[String]) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let doc = Value::Object(vec![
                ("pass".into(), Value::UInt(pass as u64)),
                ("id".into(), Value::UInt(id as u64)),
                ("layer".into(), Value::Str(s.layer.label().into())),
                ("cell".into(), Value::Str(cell_keys[s.cell].clone())),
                ("start_ns".into(), Value::UInt(s.start_ns)),
                ("end_ns".into(), Value::UInt(s.end_ns)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::UInt(p as u64)),
                ),
            ]);
            out.push_str(&doc.to_compact());
            out.push('\n');
        }
        out
    }
}

/// Time `f` and store it as a leaf span under `parent`.
pub fn timed<T>(
    tracer: &SharedTracer,
    layer: Layer,
    cell: usize,
    parent: usize,
    f: impl FnOnce() -> T,
) -> T {
    let start_ns = tracer.borrow().now_ns();
    let out = f();
    let mut t = tracer.borrow_mut();
    let end_ns = t.now_ns();
    t.spans.push(Span {
        layer,
        cell,
        start_ns,
        end_ns,
        parent: Some(parent),
    });
    out
}

/// A policy wrapper that times every call into the wrapped policy and
/// otherwise forwards it unchanged.
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
    tracer: SharedTracer,
    cell: usize,
    parent: usize,
}

impl TimedPolicy {
    /// Wrap `inner`; spans go to `tracer` under the cell's `parent` span.
    pub fn new(inner: Box<dyn Policy>, tracer: SharedTracer, cell: usize, parent: usize) -> Self {
        TimedPolicy {
            inner,
            tracer,
            cell,
            parent,
        }
    }
}

impl Policy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(&mut self, ctx: &PolicyCtx<'_>, req: &AppRequest) -> Source {
        let inner = &mut self.inner;
        timed(&self.tracer, Layer::Select, self.cell, self.parent, || {
            inner.select(ctx, req)
        })
    }

    fn observe(
        &mut self,
        ctx: &PolicyCtx<'_>,
        req: &AppRequest,
        source: Option<Source>,
        outcome: &ServiceOutcome,
    ) {
        let inner = &mut self.inner;
        timed(&self.tracer, Layer::Observe, self.cell, self.parent, || {
            inner.observe(ctx, req, source, outcome)
        })
    }

    fn on_external_disk(&mut self, now: SimTime) {
        let inner = &mut self.inner;
        timed(&self.tracer, Layer::Fault, self.cell, self.parent, || {
            inner.on_external_disk(now)
        })
    }

    fn on_stage_end(&mut self, ctx: &PolicyCtx<'_>, report: &StageReport) {
        let inner = &mut self.inner;
        timed(
            &self.tracer,
            Layer::StageEnd,
            self.cell,
            self.parent,
            || inner.on_stage_end(ctx, report),
        )
    }

    fn on_fault(&mut self, ctx: &PolicyCtx<'_>, notice: FaultNotice) {
        let inner = &mut self.inner;
        timed(&self.tracer, Layer::Fault, self.cell, self.parent, || {
            inner.on_fault(ctx, notice)
        })
    }

    fn inject_profile(&mut self, ctx: &PolicyCtx<'_>, profile: Profile) {
        let inner = &mut self.inner;
        timed(&self.tracer, Layer::Fault, self.cell, self.parent, || {
            inner.inject_profile(ctx, profile)
        })
    }

    fn recorded_profile(&mut self) -> Option<Profile> {
        self.inner.recorded_profile()
    }

    fn disk_timeout_override(&self) -> Option<ff_base::Dur> {
        self.inner.disk_timeout_override()
    }

    fn take_decision_log(&mut self) -> Vec<(SimTime, Source, &'static str)> {
        self.inner.take_decision_log()
    }
}

/// A recorder that counts every event (through a [`CountingRecorder`]),
/// times each call, and keeps the events the cache replay and the
/// invariant oracle need: application calls, write-back flushes and
/// request retries.
pub struct TimedRecorder {
    /// Per-kind event counts.
    pub counts: CountingRecorder,
    /// The kept events, in arrival order.
    pub log: EventLog,
    /// Disk spin-ups seen as `DeviceTransition` events.
    pub spin_ups: u64,
    tracer: SharedTracer,
    cell: usize,
    parent: usize,
}

impl TimedRecorder {
    /// A recorder whose spans go to `tracer` under the cell's `parent`.
    pub fn new(tracer: SharedTracer, cell: usize, parent: usize) -> Self {
        TimedRecorder {
            counts: CountingRecorder::new(),
            log: EventLog::new(),
            spin_ups: 0,
            tracer,
            cell,
            parent,
        }
    }
}

impl Recorder for TimedRecorder {
    fn record(&mut self, event: &Event) {
        let TimedRecorder {
            counts,
            log,
            spin_ups,
            tracer,
            cell,
            parent,
        } = self;
        timed(tracer, Layer::Record, *cell, *parent, || {
            counts.record(event);
            match event {
                Event::AppCall { .. }
                | Event::WritebackFlush { .. }
                | Event::RequestRetry { .. } => log.record(event),
                Event::DeviceTransition {
                    device: Device::Disk,
                    name: "spin_up",
                    ..
                } => *spin_ups += 1,
                _ => {}
            }
        })
    }
}
