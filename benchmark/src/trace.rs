//! The tracing side of the benchmark: an [`App`] decorator that times
//! every callback of the simulated app it wraps, and the per-thread
//! recorder it reports to.
//!
//! Untraced runs build the same decorator with tracing off: every callback
//! is forwarded untouched and no clock is read, so end-to-end numbers pay
//! for one predictable branch per callback and nothing else.
//!
//! Traced runs keep, per `(class, callback)`, a count, the summed
//! duration and a log2 histogram of durations, plus individual spans
//! (name, start, end, parent) for every class except the high-volume
//! swarm pingers. The parent of a callback span is the `run_for` slice
//! (or the `run_service` call) that was open when it ran. The recorder is
//! thread-local: traced simulator runs are serial (one thread), which is
//! also what makes "slice minus callbacks = netsim self time" valid.

use btc_netsim::packet::{IcmpEcho, Ipv4, SockAddr};
use btc_netsim::sim::{App, Ctx};
use btc_netsim::tcp::{CloseReason, ConnId};
use std::any::Any;
use std::cell::RefCell;
use std::time::Instant;

/// Which simulated app a decorator wraps; each maps to one layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// A `btc_node::Node` (the target and the innocent peers): layer `node`.
    Node,
    /// A `btc_attack` flooder or defamer: layer `attack`.
    Attack,
    /// A `banscore::mainnet::MainnetPeer` feeder: layer `core`.
    Feeder,
    /// The benchmark's swarm pinger (a copy of the swarm scenario's
    /// pinger): layer `core`. Kept as counters and histograms only.
    Swarm,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 4] = [Class::Node, Class::Attack, Class::Feeder, Class::Swarm];

    fn label(self) -> &'static str {
        match self {
            Class::Node => "node",
            Class::Attack => "attack",
            Class::Feeder => "feeder",
            Class::Swarm => "swarm",
        }
    }

    fn keeps_spans(self) -> bool {
        self != Class::Swarm
    }
}

/// Which callback of [`App`] ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Callback {
    /// `on_data`.
    Data,
    /// `on_accept`.
    Accept,
    /// `on_connected`.
    Connected,
    /// `on_closed`.
    Closed,
    /// `on_timer`.
    Timer,
    /// `on_start`, `on_icmp` and `on_connect_failed`.
    Other,
}

impl Callback {
    /// Every callback kind, in report order.
    pub const ALL: [Callback; 6] = [
        Callback::Data,
        Callback::Accept,
        Callback::Connected,
        Callback::Closed,
        Callback::Timer,
        Callback::Other,
    ];

    /// Short name used in metric names (`node.on_data_s`).
    pub fn label(self) -> &'static str {
        match self {
            Callback::Data => "on_data",
            Callback::Accept => "on_accept",
            Callback::Connected => "on_connected",
            Callback::Closed => "on_closed",
            Callback::Timer => "on_timer",
            Callback::Other => "on_other",
        }
    }
}

const CLASSES: usize = Class::ALL.len();
const CALLBACKS: usize = Callback::ALL.len();

/// Log2 duration histogram: bucket `b` counts durations in `[2^b, 2^(b+1))`
/// nanoseconds (bucket 0 also holds 0 ns).
#[derive(Clone, Debug)]
pub struct Log2Hist {
    /// Per-bucket counts.
    pub buckets: [u64; 64],
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist { buckets: [0; 64] }
    }
}

impl Log2Hist {
    /// Adds one duration.
    pub fn add(&mut self, ns: u64) {
        let b = 63 - ns.max(1).leading_zeros() as usize;
        self.buckets[b] += 1;
    }
}

/// Count, total and histogram of one `(class, callback)` pair.
#[derive(Clone, Debug, Default)]
pub struct CallStats {
    /// Callbacks timed.
    pub count: u64,
    /// Summed duration in nanoseconds.
    pub total_ns: u64,
    /// Duration histogram.
    pub hist: Log2Hist,
}

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Span id, unique within a recording and never 0.
    pub id: u32,
    /// Enclosing span id, or 0 at top level.
    pub parent: u32,
    /// Span name: a slice/call label or `<class>.<callback>`.
    pub name: &'static str,
    /// Start.
    pub start: u64,
    /// End.
    pub end: u64,
}

/// Spans kept in full per traced run; beyond it only the counters and
/// histograms grow (the cap bounds the recorder's memory and output).
pub const SPAN_CAP: usize = 200_000;

/// Exact `Node::on_data` durations kept for the percentile metrics.
const NODE_DATA_SAMPLE_CAP: usize = 8_000_000;

/// Everything one traced run recorded.
#[derive(Debug)]
pub struct Recording {
    origin: Instant,
    /// Per `(class, callback)` statistics.
    pub stats: [[CallStats; CALLBACKS]; CLASSES],
    /// Spans, in start order of their parents then children.
    pub spans: Vec<Span>,
    /// Spans not kept because [`SPAN_CAP`] was reached.
    pub spans_dropped: u64,
    /// Exact `Node::on_data` durations in nanoseconds.
    pub node_data_ns: Vec<u64>,
    /// Summed duration of the top-level spans (slices or service calls),
    /// kept even when [`SPAN_CAP`] drops the spans themselves.
    pub top_ns: u64,
    parent: u32,
    next_id: u32,
}

impl Recording {
    fn new() -> Self {
        Recording {
            origin: crate::clock::now(),
            stats: Default::default(),
            spans: Vec::new(),
            spans_dropped: 0,
            node_data_ns: Vec::new(),
            top_ns: 0,
            parent: 0,
            next_id: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn push_span(&mut self, parent: u32, name: &'static str, start: u64, end: u64) -> u32 {
        if self.spans.len() >= SPAN_CAP {
            self.spans_dropped += 1;
            return 0;
        }
        self.next_id += 1;
        self.spans.push(Span {
            id: self.next_id,
            parent,
            name,
            start,
            end,
        });
        self.next_id
    }

    /// Summed callback time of one class, in nanoseconds.
    pub fn class_ns(&self, class: Class) -> u64 {
        self.stats[class as usize].iter().map(|s| s.total_ns).sum()
    }

    /// Callback time of one `(class, callback)` pair, in nanoseconds.
    pub fn callback_ns(&self, class: Class, cb: Callback) -> u64 {
        self.stats[class as usize][cb as usize].total_ns
    }

    /// Callbacks timed across every class.
    pub fn callbacks(&self) -> u64 {
        self.stats.iter().flatten().map(|s| s.count).sum()
    }

    /// Writes the spans as CSV (`id,parent,name,start_ns,end_ns`) followed
    /// by the per-class histograms, one comment line each.
    pub fn write_csv(&self, out: &mut String) {
        use std::fmt::Write;
        out.push_str("id,parent,name,start_ns,end_ns\n");
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                s.id, s.parent, s.name, s.start, s.end
            );
        }
        let _ = writeln!(out, "# spans_dropped {}", self.spans_dropped);
        for class in Class::ALL {
            for cb in Callback::ALL {
                let st = &self.stats[class as usize][cb as usize];
                if st.count == 0 {
                    continue;
                }
                let hist: Vec<String> = st
                    .hist
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &n)| n > 0)
                    .map(|(b, n)| format!("2^{b}:{n}"))
                    .collect();
                let _ = writeln!(
                    out,
                    "# hist {}.{} count={} total_ns={} {}",
                    class.label(),
                    cb.label(),
                    st.count,
                    st.total_ns,
                    hist.join(" ")
                );
            }
        }
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recording>> = const { RefCell::new(None) };
}

/// Starts recording on this thread (replacing any earlier recording).
pub fn start() {
    RECORDER.with(|r| *r.borrow_mut() = Some(Recording::new()));
}

/// Stops recording on this thread and returns what was recorded.
pub fn finish() -> Option<Recording> {
    RECORDER.with(|r| r.borrow_mut().take())
}

/// Whether this thread is recording.
fn active() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// Runs `f` as a top-level span named `name` when this thread records,
/// making it the parent of every callback span inside; otherwise just
/// runs `f`.
pub fn top_level<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !active() {
        return f();
    }
    let t0 = crate::clock::now();
    let prev_next = RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("recording");
        // Reserve the id now so children can point at it; the span itself
        // is pushed after them, once its end is known.
        rec.next_id += 1;
        let id = rec.next_id;
        rec.parent = id;
        id
    });
    let out = f();
    let t1 = crate::clock::now();
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut().expect("recording");
        let (s, e) = (rec.ns(t0), rec.ns(t1));
        rec.parent = 0;
        rec.top_ns += e - s;
        if rec.spans.len() < SPAN_CAP {
            rec.spans.push(Span {
                id: prev_next,
                parent: 0,
                name,
                start: s,
                end: e,
            });
        } else {
            rec.spans_dropped += 1;
        }
    });
    out
}

fn record(class: Class, cb: Callback, t0: Instant, t1: Instant) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let Some(rec) = r.as_mut() else {
            return;
        };
        let (s, e) = (rec.ns(t0), rec.ns(t1));
        let d = e - s;
        let st = &mut rec.stats[class as usize][cb as usize];
        st.count += 1;
        st.total_ns += d;
        st.hist.add(d);
        if class == Class::Node
            && cb == Callback::Data
            && rec.node_data_ns.len() < NODE_DATA_SAMPLE_CAP
        {
            rec.node_data_ns.push(d);
        }
        if class.keeps_spans() {
            let parent = rec.parent;
            rec.push_span(parent, span_name(class, cb), s, e);
        }
    });
}

fn span_name(class: Class, cb: Callback) -> &'static str {
    const NAMES: [[&str; CALLBACKS]; CLASSES] = [
        [
            "node.on_data",
            "node.on_accept",
            "node.on_connected",
            "node.on_closed",
            "node.on_timer",
            "node.on_other",
        ],
        [
            "attack.on_data",
            "attack.on_accept",
            "attack.on_connected",
            "attack.on_closed",
            "attack.on_timer",
            "attack.on_other",
        ],
        [
            "feeder.on_data",
            "feeder.on_accept",
            "feeder.on_connected",
            "feeder.on_closed",
            "feeder.on_timer",
            "feeder.on_other",
        ],
        [
            "swarm.on_data",
            "swarm.on_accept",
            "swarm.on_connected",
            "swarm.on_closed",
            "swarm.on_timer",
            "swarm.on_other",
        ],
    ];
    NAMES[class as usize][cb as usize]
}

/// Inbound bytes of one connection, in delivery order and chunking.
#[derive(Debug, Default)]
pub struct Capture {
    /// `(connection, chunk)` in delivery order.
    pub chunks: Vec<(ConnId, Vec<u8>)>,
    /// Bytes kept.
    pub bytes: usize,
    /// Byte budget; deliveries past it are not kept.
    pub cap: usize,
}

/// The decorator: wraps a simulated app, times its callbacks when traced,
/// optionally captures its inbound bytes, and can be muted (timers
/// dropped) for the drain period after the measured phase.
pub struct Timed<A: App> {
    /// The wrapped app.
    pub inner: A,
    class: Class,
    traced: bool,
    /// When set, timer callbacks are dropped: the app stops generating
    /// new traffic but still answers what reaches it.
    pub muted: bool,
    /// Inbound byte capture (the target node, for the wire replay).
    pub capture: Option<Capture>,
}

impl<A: App> Timed<A> {
    /// Wraps `inner`; `traced` switches callback timing on.
    pub fn new(inner: A, class: Class, traced: bool) -> Self {
        Timed {
            inner,
            class,
            traced,
            muted: false,
            capture: None,
        }
    }

    /// Boxes the decorator for `add_host`.
    pub fn boxed(inner: A, class: Class, traced: bool) -> Box<dyn App> {
        Box::new(Self::new(inner, class, traced))
    }

    #[inline]
    fn timed<R>(&mut self, cb: Callback, f: impl FnOnce(&mut A) -> R) -> R {
        if !self.traced {
            return f(&mut self.inner);
        }
        let t0 = crate::clock::now();
        let out = f(&mut self.inner);
        let t1 = crate::clock::now();
        record(self.class, cb, t0, t1);
        out
    }
}

impl<A: App> App for Timed<A> {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.timed(Callback::Other, |a| a.on_start(ctx));
    }

    fn on_accept(&mut self, peer: SockAddr) -> bool {
        self.timed(Callback::Accept, |a| a.on_accept(peer))
    }

    fn on_connected(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, peer: SockAddr, inbound: bool) {
        self.timed(Callback::Connected, |a| {
            a.on_connected(ctx, conn, peer, inbound)
        });
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, peer: SockAddr, data: &[u8]) {
        self.timed(Callback::Data, |a| a.on_data(ctx, conn, peer, data));
        if let Some(cap) = self.capture.as_mut() {
            if cap.bytes + data.len() <= cap.cap {
                cap.bytes += data.len();
                cap.chunks.push((conn, data.to_vec()));
            }
        }
    }

    fn on_closed(&mut self, ctx: &mut Ctx<'_>, conn: ConnId, peer: SockAddr, reason: CloseReason) {
        self.timed(Callback::Closed, |a| a.on_closed(ctx, conn, peer, reason));
    }

    fn on_connect_failed(&mut self, ctx: &mut Ctx<'_>, dst: SockAddr) {
        self.timed(Callback::Other, |a| a.on_connect_failed(ctx, dst));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if self.muted {
            return;
        }
        self.timed(Callback::Timer, |a| a.on_timer(ctx, token));
    }

    fn on_icmp(&mut self, ctx: &mut Ctx<'_>, from: Ipv4, echo: &IcmpEcho) {
        self.timed(Callback::Other, |a| a.on_icmp(ctx, from, echo));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}
