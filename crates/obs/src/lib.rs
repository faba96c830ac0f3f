//! # yali-obs
//!
//! Zero-overhead-when-off observability for the experiment engine: named
//! atomic **counters**, fixed-bucket latency **histograms**, RAII **span**
//! timers, and a JSONL **trace sink** — with one contract above all:
//! instrumentation must never perturb a result, and when it is off it must
//! cost **one relaxed atomic load per call site**.
//!
//! ## Switching it on
//!
//! Observability is off by default. `YALI_OBS=1` (or any value other than
//! `0`/`off`/`false`) enables the counters, histograms, and spans;
//! [`set_enabled`] does the same programmatically (tests and benches use
//! it to avoid process-global environment races). `YALI_TRACE=<path>` (or
//! [`set_trace_path`]) additionally streams span open/close events as JSON
//! lines, so a run can be replayed into a flamegraph-style timeline.
//!
//! ## Cost model
//!
//! Every entry point begins with [`enabled`], a single
//! `AtomicU8::load(Relaxed)` once the state is initialized. When it
//! returns `false`, [`count!`] is a load plus an untaken branch, and
//! [`span!`] returns an inert guard whose `Drop` is a branch on a bool —
//! no clock reads, no registry locks, no allocation. The
//! `criterion_micro` bench (`obs/count_disabled`, `obs/span_disabled`)
//! measures both at around a nanosecond.
//!
//! ## Naming
//!
//! Names are `&'static str` and registered on first use; handles are
//! leaked (`Box::leak`) so call sites hold `&'static` references and pay
//! the registry lock only once per distinct name per call site (the
//! [`count!`]/[`record!`] macros cache the handle in a `OnceLock`).
//! Dotted lowercase names (`embed.batch`, `par.busy_ns`) group related
//! series; [`Registry::counters`]/[`Registry::histograms`] snapshot
//! everything for `yali_core::report`'s `RUNSTATS.json`.
//!
//! ## Live telemetry
//!
//! Everything above aggregates over the process lifetime — the right
//! shape for a bounded run, the wrong one for a daemon. Two modules add
//! the live view: [`window`] provides sliding-window histograms/counters
//! (clock-free epoch rings; "p99 over the last ten seconds"), and
//! [`recorder`] is the flight recorder — per-thread lock-free rings of
//! recent span events, always on at bounded memory, dumpable as a JSONL
//! trace `yali-prof` consumes unchanged.

#![warn(missing_docs)]

pub mod recorder;
pub mod window;

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// --- distributed trace context -------------------------------------------

/// The identity a span carries across process boundaries: a 64-bit trace
/// id shared by every span of one logical request (client and server,
/// coordinator and shard), plus the span sequence id of the remote parent.
///
/// Contexts are **derived, never drawn**: [`TraceContext::derive`] mixes a
/// caller-supplied seed and a stream index through SplitMix64, so the same
/// run produces the same ids — trace identity obeys the engine's
/// determinism contract instead of `Date::now`-style entropy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// The trace id shared by every process touching this request.
    pub trace_id: u64,
    /// The per-thread `seq` of the parent span in the *originating*
    /// process (0 when the context roots the trace).
    pub parent_span: u64,
}

impl TraceContext {
    /// Derives the context for stream `stream` of the trace family seeded
    /// by `seed`. `mix64` is a bijection and `seed + stream * odd` is a
    /// bijection in `stream`, so distinct streams under one seed always
    /// get distinct trace ids.
    pub fn derive(seed: u64, stream: u64) -> TraceContext {
        TraceContext {
            trace_id: mix64(seed.wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))),
            parent_span: 0,
        }
    }

    /// The same trace with a different remote parent span (the client
    /// stamps its own request span's `seq` here before sending).
    pub fn with_parent(self, parent_span: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            parent_span,
        }
    }
}

/// The SplitMix64 finalizer: a cheap, high-quality u64 bijection (used
/// for trace-id derivation; public so the serve client and the load bench
/// derive identical families from their request counters).
pub fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

thread_local! {
    static CURRENT_CTX: std::cell::Cell<Option<TraceContext>> =
        const { std::cell::Cell::new(None) };
}

/// The current thread's trace context, if one is installed (spans opened
/// while a context is current carry it on their trace events).
#[inline]
pub fn current_context() -> Option<TraceContext> {
    CURRENT_CTX.with(|c| c.get())
}

/// RAII guard returned by [`push_context`]; restores the previously
/// current context (possibly none) on drop, so nested scopes compose.
pub struct ContextGuard {
    prev: Option<TraceContext>,
}

impl Drop for ContextGuard {
    fn drop(&mut self) {
        CURRENT_CTX.with(|c| c.set(self.prev));
    }
}

/// Installs `ctx` as the current thread's trace context for the guard's
/// lifetime. Every span opened (and every [`trace_region`] emitted) on
/// this thread while the guard lives carries `trace`/`parent` fields, so
/// a server's dispatch spans join the client's timeline.
pub fn push_context(ctx: TraceContext) -> ContextGuard {
    ContextGuard {
        prev: CURRENT_CTX.with(|c| c.replace(Some(ctx))),
    }
}

// --- global on/off state -------------------------------------------------

const STATE_UNKNOWN: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNKNOWN);

/// Whether instrumentation is live. One relaxed atomic load in the steady
/// state; the first call reads `YALI_OBS` (off when unset, `0`, `off`, or
/// `false`).
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_state(),
    }
}

#[cold]
fn init_state() -> bool {
    let on = match std::env::var("YALI_OBS") {
        Ok(v) => !matches!(v.trim(), "" | "0" | "off" | "false"),
        Err(_) => false,
    };
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    if on {
        init_trace_from_env();
    }
    on
}

/// Programmatic override of `YALI_OBS` (tests and benches flip this
/// instead of racing on process-global environment variables).
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}

// --- counters ------------------------------------------------------------

/// A named monotonic counter. Handles are `&'static`; bumping is one
/// relaxed `fetch_add`.
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Adds `n` (unconditionally — gate hot call sites with [`count!`] or
    /// an explicit [`enabled`] check).
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

// --- histograms ----------------------------------------------------------

/// Power-of-two bucket count: bucket `i` holds samples in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 also takes 0), up to ~9 minutes
/// in the last bucket.
pub const HIST_BUCKETS: usize = 40;

/// A fixed-bucket histogram of nanosecond samples with exact sum/count
/// (so mean phase wall time is exact even though the distribution is
/// bucketed).
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one nanosecond sample (unconditionally — gate hot call
    /// sites with [`record!`] or an explicit [`enabled`] check).
    #[inline]
    pub fn record(&self, ns: u64) {
        let idx = (63 - (ns | 1).leading_zeros() as usize).min(HIST_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(ns, Ordering::Relaxed);
        self.max.fetch_max(ns, Ordering::Relaxed);
    }

    /// Point-in-time copy of the histogram.
    pub fn snapshot(&self, name: &str) -> HistSnapshot {
        HistSnapshot {
            name: name.to_string(),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum.load(Ordering::Relaxed),
            max_ns: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Point-in-time copy of one [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Registered name.
    pub name: String,
    /// Samples recorded.
    pub count: u64,
    /// Exact sum of all samples, in nanoseconds.
    pub sum_ns: u64,
    /// Largest sample, in nanoseconds.
    pub max_ns: u64,
    /// Power-of-two bucket counts (see [`HIST_BUCKETS`]).
    pub buckets: Vec<u64>,
}

impl HistSnapshot {
    /// Mean sample in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Estimated `q`-quantile in nanoseconds (`q` in `[0, 1]`), linearly
    /// interpolated inside the log2 bucket holding the target rank, so the
    /// estimate is never off by more than one bucket width (a factor of
    /// two). `q >= 1` returns the exact recorded maximum; an empty
    /// snapshot returns 0 (use [`HistSnapshot::quantile_opt`] where "no
    /// samples" must stay distinguishable from "0 ns"). Estimates are
    /// clamped to `max_ns`, so no quantile ever exceeds the largest
    /// observed sample.
    pub fn quantile(&self, q: f64) -> u64 {
        self.quantile_opt(q).unwrap_or(0)
    }

    /// [`HistSnapshot::quantile`] with an explicit empty case: `None` when
    /// the snapshot holds no samples, so callers that *gate* on a
    /// quantile (the serve `metrics` reply, `yali-prof diff`) never
    /// mistake an idle window for a zero-nanosecond latency.
    pub fn quantile_opt(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        if q >= 1.0 {
            return Some(self.max_ns);
        }
        // 1-based rank of the requested quantile among the sorted samples.
        let target = ((q.max(0.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= target {
                // Bucket i spans [2^i, 2^(i+1)); bucket 0 also holds 0
                // and 1. Interpolate by the rank's position in the bucket.
                let lo = if i == 0 { 0u64 } else { 1u64 << i };
                let hi = 1u64 << (i + 1);
                let frac = (target - seen) as f64 / n as f64;
                let est = lo as f64 + frac * (hi - lo) as f64;
                return Some((est as u64).min(self.max_ns));
            }
            seen += n;
        }
        Some(self.max_ns)
    }
}

// --- the registry --------------------------------------------------------

/// The process-wide name → counter/histogram registry.
pub struct Registry {
    counters: Mutex<Vec<(&'static str, &'static Counter)>>,
    hists: Mutex<Vec<(&'static str, &'static Histogram)>>,
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

impl Registry {
    /// The global registry.
    pub fn global() -> &'static Registry {
        REGISTRY.get_or_init(|| Registry {
            counters: Mutex::new(Vec::new()),
            hists: Mutex::new(Vec::new()),
        })
    }

    /// Sorted snapshot of every counter (zero-valued ones included: a
    /// registered-but-idle series is information, not noise).
    pub fn counters(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(n, c)| (n.to_string(), c.get()))
            .collect();
        out.sort();
        out
    }

    /// Sorted snapshot of every histogram.
    pub fn histograms(&self) -> Vec<HistSnapshot> {
        let mut out: Vec<HistSnapshot> = self
            .hists
            .lock()
            .unwrap()
            .iter()
            .map(|(n, h)| h.snapshot(n))
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Zeroes every counter and histogram (report scoping and tests;
    /// registered handles stay valid).
    pub fn reset(&self) {
        for (_, c) in self.counters.lock().unwrap().iter() {
            c.v.store(0, Ordering::Relaxed);
        }
        for (_, h) in self.hists.lock().unwrap().iter() {
            h.reset();
        }
    }
}

/// Returns (registering on first use) the counter named `name`. The
/// registry vector is kept sorted by name, so lookup under the mutex is a
/// binary search rather than a linear scan (sweeps register hundreds of
/// distinct series; uncached call sites would otherwise pay O(n) each).
pub fn counter(name: &'static str) -> &'static Counter {
    let reg = Registry::global();
    let mut counters = reg.counters.lock().unwrap();
    match counters.binary_search_by_key(&name, |&(n, _)| n) {
        Ok(i) => counters[i].1,
        Err(i) => {
            let c: &'static Counter = Box::leak(Box::new(Counter {
                v: AtomicU64::new(0),
            }));
            counters.insert(i, (name, c));
            c
        }
    }
}

/// Returns (registering on first use) the histogram named `name`. Same
/// sorted-vector binary search as [`counter`].
pub fn histogram(name: &'static str) -> &'static Histogram {
    let reg = Registry::global();
    let mut hists = reg.hists.lock().unwrap();
    match hists.binary_search_by_key(&name, |&(n, _)| n) {
        Ok(i) => hists[i].1,
        Err(i) => {
            let h: &'static Histogram = Box::leak(Box::new(Histogram::new()));
            hists.insert(i, (name, h));
            h
        }
    }
}

/// Bumps the named counter by `n` when observability is on; a relaxed
/// load and an untaken branch when off. The handle is cached per call
/// site, so the registry lock is paid once.
#[macro_export]
macro_rules! count {
    ($name:literal, $n:expr) => {
        if $crate::enabled() {
            static H: ::std::sync::OnceLock<&'static $crate::Counter> =
                ::std::sync::OnceLock::new();
            H.get_or_init(|| $crate::counter($name)).add($n);
        }
    };
}

/// Records a nanosecond sample into the named histogram when observability
/// is on; a relaxed load and an untaken branch when off.
#[macro_export]
macro_rules! record {
    ($name:literal, $ns:expr) => {
        if $crate::enabled() {
            static H: ::std::sync::OnceLock<&'static $crate::Histogram> =
                ::std::sync::OnceLock::new();
            H.get_or_init(|| $crate::histogram($name)).record($ns);
        }
    };
}

/// Opens an RAII span timer (see [`span`]); the guard records its
/// lifetime into the histogram of the same name and mirrors open/close
/// events to the trace sink. The histogram handle is cached per call
/// site, so neither open nor drop ever takes the registry lock.
#[macro_export]
macro_rules! span {
    ($label:literal) => {{
        static H: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        $crate::span_cached($label, &H)
    }};
}

/// [`span!`] with one extra `key: value` attribute on the open and close
/// events; the histogram handle is cached per call site like [`span!`].
#[macro_export]
macro_rules! span_attr {
    ($label:literal, $key:literal, $value:expr) => {{
        static H: ::std::sync::OnceLock<&'static $crate::Histogram> =
            ::std::sync::OnceLock::new();
        $crate::span_attr_cached($label, &H, $key, $value)
    }};
}

// --- spans ---------------------------------------------------------------

// Per-thread span bookkeeping for the trace sink: `seq` is a monotone
// open-event sequence number (never reused, so a close can name the open
// it pairs with), `depth` is the current nesting level. Spans obey stack
// discipline per thread (RAII guards drop LIFO), which is what makes a
// trace reconstructible from the flat event stream.
thread_local! {
    static NEXT_SEQ: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    static DEPTH: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// RAII span timer returned by [`span`]. While observability is off the
/// guard is inert: no clock read on open, a single branch on drop.
pub struct SpanGuard {
    label: &'static str,
    /// Start instant and the label's histogram, both resolved at open
    /// (through the per-call-site cache when opened by the macros), so a
    /// drop on the hot path is clock + relaxed atomics — never the
    /// registry lock. `None` while observability is off.
    timed: Option<(Instant, &'static Histogram)>,
    /// The open event's attribute, echoed on the close event so
    /// per-module filtering works on either end of the pair.
    attr: Option<(&'static str, u64)>,
    /// `(seq, depth)` of the traced open event; `None` when the open was
    /// not traced (so the drop never emits a close without its open).
    trace: Option<(u64, u64)>,
}

impl SpanGuard {
    /// The per-thread sequence id of this span's traced open event, or
    /// `None` when the open was not traced (observability off / no sink).
    /// A client uses this as the `parent_span` of the [`TraceContext`] it
    /// sends over the wire, so remote spans point back at the exact local
    /// span that issued the request.
    #[inline]
    pub fn seq(&self) -> Option<u64> {
        self.trace.map(|(seq, _)| seq)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((start, hist)) = self.timed {
            let ns = start.elapsed().as_nanos() as u64;
            hist.record(ns);
            if let Some((seq, depth)) = self.trace {
                DEPTH.with(|d| d.set(depth));
                let t_ns = epoch_ns();
                if trace_on() {
                    let mut fields = vec![
                        ("ev", TraceVal::Str("close")),
                        ("span", TraceVal::Str(self.label)),
                        ("tid", TraceVal::U64(thread_id())),
                        ("seq", TraceVal::U64(seq)),
                        ("depth", TraceVal::U64(depth)),
                        ("t_ns", TraceVal::U64(t_ns)),
                        ("dur_ns", TraceVal::U64(ns)),
                    ];
                    if let Some((k, v)) = self.attr {
                        fields.push((k, TraceVal::Hex(v)));
                    }
                    trace_event(&fields);
                }
                if recorder::recorder_on() {
                    recorder::record_span(
                        recorder::RecKind::Close,
                        self.label,
                        seq,
                        depth,
                        t_ns,
                        ns,
                        self.attr,
                    );
                }
            }
        }
    }
}

/// Opens a span labelled `label`: its drop records the elapsed
/// nanoseconds into the histogram of the same name, and (when a trace
/// sink is active) open/close events with thread id, per-thread sequence
/// id, stack depth, and wall-nanos stream to the JSONL sink.
///
/// Resolves the histogram through the registry lock on every call; hot
/// call sites should prefer the [`span!`] macro, which caches the handle.
#[inline]
pub fn span(label: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            label,
            timed: None,
            attr: None,
            trace: None,
        };
    }
    span_open(label, histogram(label), None)
}

/// [`span`] with one extra `key: value` attribute on the open **and**
/// close events (e.g. the content hash of the module being embedded). The
/// value is rendered as hex, matching `Module::content_hash` conventions.
#[inline]
pub fn span_attr(label: &'static str, key: &'static str, value: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            label,
            timed: None,
            attr: None,
            trace: None,
        };
    }
    span_open(label, histogram(label), Some((key, value)))
}

/// The [`span!`] macro's entry point: like [`span`], but the histogram
/// handle comes from the macro's per-call-site `OnceLock`, so the
/// registry lock is paid once per call site, not once per span.
#[inline]
pub fn span_cached(
    label: &'static str,
    slot: &'static std::sync::OnceLock<&'static Histogram>,
) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            label,
            timed: None,
            attr: None,
            trace: None,
        };
    }
    span_open(label, slot.get_or_init(|| histogram(label)), None)
}

/// The [`span_attr!`] macro's entry point; see [`span_cached`].
#[inline]
pub fn span_attr_cached(
    label: &'static str,
    slot: &'static std::sync::OnceLock<&'static Histogram>,
    key: &'static str,
    value: u64,
) -> SpanGuard {
    if !enabled() {
        return SpanGuard {
            label,
            timed: None,
            attr: None,
            trace: None,
        };
    }
    span_open(label, slot.get_or_init(|| histogram(label)), Some((key, value)))
}

#[cold]
fn span_open(
    label: &'static str,
    hist: &'static Histogram,
    attr: Option<(&'static str, u64)>,
) -> SpanGuard {
    // Both event sinks share one seq/depth assignment and one clock read:
    // the streaming JSONL sink and the in-memory flight recorder see the
    // same event, so a recorder dump and a live trace are interchangeable
    // inputs to yali-prof.
    let sink = trace_on();
    let rec = recorder::recorder_on();
    let trace = if sink || rec {
        let seq = NEXT_SEQ.with(|s| {
            let v = s.get();
            s.set(v + 1);
            v
        });
        let depth = DEPTH.with(|d| {
            let v = d.get();
            d.set(v + 1);
            v
        });
        let t_ns = epoch_ns();
        if sink {
            let mut fields = vec![
                ("ev", TraceVal::Str("open")),
                ("span", TraceVal::Str(label)),
                ("tid", TraceVal::U64(thread_id())),
                ("seq", TraceVal::U64(seq)),
                ("depth", TraceVal::U64(depth)),
                ("t_ns", TraceVal::U64(t_ns)),
            ];
            if let Some(ctx) = current_context() {
                fields.push(("trace", TraceVal::Hex(ctx.trace_id)));
                fields.push(("parent", TraceVal::Hex(ctx.parent_span)));
            }
            if let Some((k, v)) = attr {
                fields.push((k, TraceVal::Hex(v)));
            }
            trace_event(&fields);
        }
        if rec {
            recorder::record_span(recorder::RecKind::Open, label, seq, depth, t_ns, 0, attr);
        }
        Some((seq, depth))
    } else {
        None
    };
    SpanGuard {
        label,
        timed: Some((Instant::now(), hist)),
        attr,
        trace,
    }
}

// --- the JSONL trace sink ------------------------------------------------

static TRACE_ON: AtomicBool = AtomicBool::new(false);
// LineWriter, not BufWriter: process exit never runs static destructors,
// so a block-buffered sink would silently drop its final partial buffer
// (unbalanced open/close events) in any binary that does not call
// flush_trace() before exiting.
static TRACE_SINK: Mutex<Option<std::io::LineWriter<std::fs::File>>> = Mutex::new(None);

/// Whether a trace sink is attached (cheap relaxed load).
#[inline]
pub fn trace_on() -> bool {
    TRACE_ON.load(Ordering::Relaxed)
}

fn init_trace_from_env() {
    if let Ok(path) = std::env::var("YALI_TRACE") {
        if !path.trim().is_empty() {
            set_trace_path(Some(path.trim()));
        }
    }
}

// --- process identity & the trace preamble -------------------------------

static IDENTITY: Mutex<Option<(String, Option<u64>)>> = Mutex::new(None);

/// Stamps the process identity written into the trace preamble: a `role`
/// ("serve", "worker", "client", …) and an optional shard index. Call
/// before attaching a trace sink; unset, the preamble falls back to the
/// `YALI_ROLE` / `YALI_SHARD` environment (which is how `yali-grid run`
/// stamps its spawned workers) and then to role `"main"`.
pub fn set_identity(role: &str, shard: Option<u64>) {
    *IDENTITY.lock().unwrap() = Some((role.to_string(), shard));
}

static SHARD_ONCE: WarnOnce = WarnOnce::new();

/// The effective process identity: programmatic [`set_identity`] wins,
/// then `YALI_ROLE`/`YALI_SHARD`, then `("main", None)`.
pub fn identity() -> (String, Option<u64>) {
    if let Some(id) = IDENTITY.lock().unwrap().clone() {
        return id;
    }
    let role = std::env::var("YALI_ROLE")
        .ok()
        .map(|v| v.trim().to_string())
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| "main".to_string());
    let shard = env_once(
        "YALI_SHARD",
        &SHARD_ONCE,
        "is not a shard index (expected a non-negative integer); omitting the shard stamp",
        |v| match v {
            None => EnvVar::Unset,
            Some(raw) => match raw.trim().parse::<u64>() {
                Ok(n) => EnvVar::Value(n),
                Err(_) => EnvVar::Invalid,
            },
        },
    );
    (role, shard)
}

/// Renders the `{"ev":"preamble",...}` line stamped at the top of every
/// trace file: process identity (`pid` + role + optional shard) and the
/// clock handshake — `t_ns` on the process-local epoch paired with
/// `unix_ns` wall-clock nanoseconds sampled at the same instant, which is
/// what lets `yali-prof merge` align per-process timelines. `unix_ns` is
/// rendered as a hex string (it exceeds 2^53, the exact-integer range of
/// JSON doubles).
fn preamble_line() -> String {
    let (role, shard) = identity();
    let t_ns = epoch_ns();
    let unix_ns = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut fields = vec![
        ("ev", TraceVal::Str("preamble")),
        ("tid", TraceVal::U64(thread_id())),
        ("t_ns", TraceVal::U64(t_ns)),
        ("pid", TraceVal::U64(std::process::id() as u64)),
        ("role", TraceVal::Owned(role)),
    ];
    if let Some(s) = shard {
        fields.push(("shard", TraceVal::U64(s)));
    }
    fields.push(("unix_ns", TraceVal::Hex(unix_ns)));
    render_event(&fields)
}

/// Attaches (or with `None` detaches) the JSONL event sink. The file is
/// truncated and a preamble line stamping the process identity (see
/// [`set_identity`]) is written first; failures to open are reported on
/// stderr and leave tracing off — observability must never take a run
/// down.
pub fn set_trace_path(path: Option<&str>) {
    // The preamble is rendered before the sink lock is taken: identity()
    // may warn(), and warn() takes the sink lock itself.
    let preamble = path.map(|_| preamble_line());
    let mut sink = TRACE_SINK.lock().unwrap();
    if let Some(mut old) = sink.take() {
        let _ = old.flush();
    }
    TRACE_ON.store(false, Ordering::Relaxed);
    if let Some(path) = path {
        match std::fs::File::create(path) {
            Ok(f) => {
                let mut w = std::io::LineWriter::new(f);
                if let Some(p) = &preamble {
                    let _ = w.write_all(p.as_bytes());
                }
                *sink = Some(w);
                TRACE_ON.store(true, Ordering::Relaxed);
            }
            Err(e) => eprintln!("yali-obs: cannot open trace sink {path}: {e}"),
        }
    }
}

/// Flushes buffered trace events to disk (reports call this before
/// reading the file back; process exit does not run static destructors).
pub fn flush_trace() {
    if let Some(w) = TRACE_SINK.lock().unwrap().as_mut() {
        let _ = w.flush();
    }
}

/// A value in a trace event.
enum TraceVal {
    Str(&'static str),
    U64(u64),
    Hex(u64),
    Owned(String),
}

fn trace_event(fields: &[(&str, TraceVal)]) {
    let line = render_event(fields);
    if let Some(w) = TRACE_SINK.lock().unwrap().as_mut() {
        let _ = w.write_all(line.as_bytes());
    }
}

fn render_event(fields: &[(&str, TraceVal)]) -> String {
    let mut line = String::with_capacity(96);
    line.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push('"');
        line.push_str(k);
        line.push_str("\":");
        match v {
            TraceVal::Str(s) => {
                line.push('"');
                json_escape_into(&mut line, s);
                line.push('"');
            }
            TraceVal::U64(n) => line.push_str(&n.to_string()),
            TraceVal::Hex(n) => {
                line.push('"');
                line.push_str(&format!("{n:#018x}"));
                line.push('"');
            }
            TraceVal::Owned(s) => {
                line.push('"');
                json_escape_into(&mut line, s);
                line.push('"');
            }
        }
    }
    line.push_str("}\n");
    line
}

pub(crate) fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Emits a warning: always mirrored to stderr (misconfiguration must not
/// be silent even with observability off) and, when a sink is attached, a
/// `{"ev":"warn",...}` event.
pub fn warn(msg: &str) {
    eprintln!("yali-obs: warning: {msg}");
    if trace_on() {
        trace_event(&[
            ("ev", TraceVal::Str("warn")),
            ("tid", TraceVal::U64(thread_id())),
            ("t_ns", TraceVal::U64(epoch_ns())),
            ("msg", TraceVal::Owned(msg.to_string())),
        ]);
    }
}

/// Emits a custom event with a label and per-call numeric fields (the
/// parallel pool reports per-region utilization this way). No-op without
/// an attached sink.
pub fn trace_region(label: &'static str, fields: &[(&'static str, u64)]) {
    if !trace_on() {
        return;
    }
    let mut all: Vec<(&str, TraceVal)> = vec![
        ("ev", TraceVal::Str("region")),
        ("label", TraceVal::Str(label)),
        ("tid", TraceVal::U64(thread_id())),
        ("t_ns", TraceVal::U64(epoch_ns())),
    ];
    if let Some(ctx) = current_context() {
        all.push(("trace", TraceVal::Hex(ctx.trace_id)));
        all.push(("parent", TraceVal::Hex(ctx.parent_span)));
    }
    for &(k, v) in fields {
        all.push((k, TraceVal::U64(v)));
    }
    trace_event(&all);
}

// --- thread ids and the process epoch ------------------------------------

static NEXT_TID: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed) as u64;
}

/// A small sequential id for the current thread (assigned on first use;
/// `ThreadId` itself has no stable numeric form).
pub fn thread_id() -> u64 {
    TID.with(|t| *t)
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the first observability event of the process — the
/// common clock all trace timestamps share.
pub fn epoch_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

// --- YALI_* environment knobs --------------------------------------------
//
// Every engine knob shares one contract: unset means "use the default",
// a parsable value wins, and a set-but-garbage value must warn exactly
// once per process (stderr plus the trace sink) and then behave as
// unset — experiments degrade loudly, they never abort. The three-state
// parse result and the warn-once plumbing live here so the per-knob code
// is only the parse function itself.

/// How one `YALI_*` environment variable parsed. Each knob supplies its
/// own parse function; this is the shared shape of the answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnvVar<T> {
    /// Variable not set (or an explicit "off" spelling): use the default.
    Unset,
    /// A usable value.
    Value(T),
    /// Set but unusable; the caller warns once and uses the default.
    Invalid,
}

/// One-shot latch backing the warn-once discipline. Declare one
/// `static` per knob and pass it to [`env_once`].
pub struct WarnOnce(AtomicBool);

impl WarnOnce {
    /// A fresh latch (usable in `static` position).
    pub const fn new() -> Self {
        WarnOnce(AtomicBool::new(false))
    }

    /// Emits `msg` through [`warn`] the first time only.
    pub fn warn(&self, msg: &str) {
        if !self.0.swap(true, Ordering::Relaxed) {
            warn(msg);
        }
    }
}

impl Default for WarnOnce {
    fn default() -> Self {
        Self::new()
    }
}

/// Reads the environment variable `name`, runs `parse` on it, and maps
/// the result to `Some(value)` / `None`. An [`EnvVar::Invalid`] parse
/// warns once through `once` as `"NAME="raw" invalid_msg"` — the message
/// fragment states what was expected and what the fallback is.
pub fn env_once<T>(
    name: &str,
    once: &WarnOnce,
    invalid_msg: &str,
    parse: impl FnOnce(Option<&str>) -> EnvVar<T>,
) -> Option<T> {
    let raw = std::env::var(name).ok();
    match parse(raw.as_deref()) {
        EnvVar::Value(v) => Some(v),
        EnvVar::Unset => None,
        EnvVar::Invalid => {
            once.warn(&format!("{name}={:?} {invalid_msg}", raw.unwrap_or_default()));
            None
        }
    }
}

// --- Command-line flags ----------------------------------------------------
//
// The binaries read their `--flag value` arguments through one walker,
// kept next to the `YALI_*` knob reader above.

/// One `--flag value` argument walker: flags in order (the last of a
/// repeated flag wins); every other argument is collected as positional.
pub struct Args<'a> {
    flags: Vec<(&'a str, &'a str)>,
    /// The arguments that are neither a flag nor a flag's value, in order.
    pub positional: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Walks `args`; a flag without a value is an error.
    pub fn parse(args: &'a [String]) -> Result<Args<'a>, String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| format!("--{name} needs a value"))?;
                flags.push((name, value.as_str()));
            } else {
                positional.push(a.as_str());
            }
        }
        Ok(Args { flags, positional })
    }

    /// The value of `--name`, if given.
    pub fn get(&self, name: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The value of `--name`, or an error saying it is required.
    pub fn require(&self, name: &str) -> Result<&'a str, String> {
        self.get(name).ok_or_else(|| format!("--{name} is required"))
    }

    /// `--name` parsed as a number, or `default` when it is not given.
    pub fn get_num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} {v:?} is not a count")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global enabled flag is process-wide, so every test that flips
    // it serializes on this lock and restores `false` before returning.
    static GLOBAL_STATE: Mutex<()> = Mutex::new(());

    #[test]
    fn counters_register_once_and_accumulate() {
        let _lock = GLOBAL_STATE.lock().unwrap();
        set_enabled(true);
        count!("test.counter.a", 2);
        count!("test.counter.a", 3);
        set_enabled(false);
        count!("test.counter.a", 100); // off: must not land
        assert_eq!(counter("test.counter.a").get(), 5);
        let all = Registry::global().counters();
        assert_eq!(all.iter().filter(|(n, _)| n == "test.counter.a").count(), 1);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _lock = GLOBAL_STATE.lock().unwrap();
        set_enabled(false);
        {
            let _g = span!("test.span.disabled");
        }
        assert_eq!(histogram("test.span.disabled").snapshot("x").count, 0);
    }

    #[test]
    fn enabled_spans_record_duration() {
        let _lock = GLOBAL_STATE.lock().unwrap();
        set_enabled(true);
        {
            let _g = span!("test.span.enabled");
            std::hint::black_box(1 + 1);
        }
        set_enabled(false);
        let snap = histogram("test.span.enabled").snapshot("test.span.enabled");
        assert_eq!(snap.count, 1);
        assert!(snap.sum_ns > 0);
        assert_eq!(snap.buckets.iter().sum::<u64>(), 1);
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1 << 20);
        h.record(u64::MAX);
        let s = h.snapshot("h");
        assert_eq!(s.count, 6);
        assert_eq!(s.buckets[0], 2); // 0 and 1
        assert_eq!(s.buckets[1], 2); // 2 and 3
        assert_eq!(s.buckets[20], 1);
        assert_eq!(s.buckets[HIST_BUCKETS - 1], 1);
        assert_eq!(s.max_ns, u64::MAX);
        assert!(s.mean_ns() > 0.0);
    }

    #[test]
    fn trace_sink_writes_parseable_lines() {
        let _lock = GLOBAL_STATE.lock().unwrap();
        let path = std::env::temp_dir().join("yali_obs_selftest.jsonl");
        let path = path.to_str().unwrap().to_string();
        set_trace_path(Some(&path));
        set_enabled(true);
        {
            let _g = span_attr("test.trace.span", "module", 0xDEAD_BEEF);
        }
        warn("test \"quoted\" warning\nwith newline");
        set_enabled(false);
        set_trace_path(None);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.len() >= 3, "open + close + warn, got {lines:?}");
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(text.contains("\"span\":\"test.trace.span\""));
        assert!(text.contains("\"module\":\"0x00000000deadbeef\""));
        assert!(text.contains("\\\"quoted\\\""));
        assert!(text.contains("\\n"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reset_zeroes_everything() {
        let _lock = GLOBAL_STATE.lock().unwrap();
        set_enabled(true);
        count!("test.reset.counter", 7);
        record!("test.reset.hist", 123);
        set_enabled(false);
        Registry::global().reset();
        assert_eq!(counter("test.reset.counter").get(), 0);
        assert_eq!(histogram("test.reset.hist").snapshot("x").count, 0);
    }

    #[test]
    fn trace_events_carry_seq_depth_and_attr_on_both_ends() {
        let _lock = GLOBAL_STATE.lock().unwrap();
        let path = std::env::temp_dir().join("yali_obs_seqdepth.jsonl");
        let path = path.to_str().unwrap().to_string();
        set_trace_path(Some(&path));
        set_enabled(true);
        {
            let _outer = span!("test.seq.outer");
            let _inner = span_attr("test.seq.inner", "module", 0xABCD);
        }
        {
            let _again = span!("test.seq.outer");
        }
        set_enabled(false);
        set_trace_path(None);
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let mut opens: Vec<(String, u64, u64)> = Vec::new();
        let mut closes: Vec<(String, u64, u64, bool)> = Vec::new();
        for line in text.lines() {
            let v = serde_json::from_str(line).expect("trace line parses");
            if !line.contains("test.seq.") {
                continue;
            }
            let span = v["span"].as_str().unwrap().to_string();
            let seq = v["seq"].as_u64().unwrap();
            let depth = v["depth"].as_u64().unwrap();
            match v["ev"].as_str().unwrap() {
                "open" => opens.push((span, seq, depth)),
                "close" => closes.push((span, seq, depth, line.contains("\"module\""))),
                other => panic!("unexpected ev {other}"),
            }
        }
        assert_eq!(opens.len(), 3);
        assert_eq!(closes.len(), 3);
        // Per-thread sequence ids are strictly monotone across opens.
        assert!(opens.windows(2).all(|w| w[0].1 < w[1].1), "{opens:?}");
        // Nesting depth: outer at 0, inner at 1, the second outer at 0.
        assert_eq!(opens[0].2, 0);
        assert_eq!(opens[1].2, 1);
        assert_eq!(opens[2].2, 0);
        // Closes echo the open's seq (inner closes first) and the attr
        // lands on both ends of the attributed span.
        assert_eq!(closes[0].0, "test.seq.inner");
        assert_eq!(closes[0].1, opens[1].1);
        assert!(closes[0].3, "close lost the open's attr");
        assert_eq!(closes[1].0, "test.seq.outer");
        assert_eq!(closes[1].1, opens[0].1);
        assert!(!closes[1].3);
    }

    #[test]
    fn quantiles_estimate_within_one_bucket_and_p100_is_exact() {
        let h = Histogram::new();
        // 100 samples at exactly 100ns: every quantile lives in the
        // [64, 128) bucket, and p100 is the exact max.
        for _ in 0..100 {
            h.record(100);
        }
        let s = h.snapshot("q");
        for q in [0.0, 0.5, 0.95, 0.99] {
            let est = s.quantile(q);
            assert!((64..128).contains(&est), "q={q} est={est}");
        }
        assert_eq!(s.quantile(1.0), 100);

        // A bimodal distribution: 90 fast samples (~1µs), 10 slow (~1ms).
        // p50 must sit in the fast mode's bucket, p95+ in the slow one.
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(1_000);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let s = h.snapshot("q");
        let p50 = s.quantile(0.5);
        let p95 = s.quantile(0.95);
        assert!((512..1_024).contains(&p50), "p50={p50}");
        assert!((524_288..=1_000_000).contains(&p95), "p95={p95}");
        assert_eq!(s.quantile(1.0), 1_000_000);
        // Quantiles are monotone in q.
        let qs: Vec<u64> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0]
            .iter()
            .map(|&q| s.quantile(q))
            .collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
    }

    #[test]
    fn quantile_of_empty_snapshot_is_zero() {
        let s = Histogram::new().snapshot("empty");
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.quantile(1.0), 0);
    }

    #[test]
    fn registry_registers_first_use_once_and_snapshots_stay_sorted() {
        // Out-of-order registration: handles are stable (same pointer on
        // re-lookup) and snapshots come back sorted by name regardless.
        let c1 = counter("test.zzz.order");
        let c2 = counter("test.aaa.order");
        let c3 = counter("test.mmm.order");
        assert!(std::ptr::eq(c1, counter("test.zzz.order")));
        assert!(std::ptr::eq(c2, counter("test.aaa.order")));
        assert!(std::ptr::eq(c3, counter("test.mmm.order")));
        let names: Vec<String> = Registry::global()
            .counters()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "counter snapshot must stay name-sorted");
        assert_eq!(
            names.iter().filter(|n| *n == "test.zzz.order").count(),
            1,
            "re-registration must not duplicate"
        );
        let h1 = histogram("test.zzz.hist");
        assert!(std::ptr::eq(h1, histogram("test.zzz.hist")));
        let hnames: Vec<String> = Registry::global()
            .histograms()
            .into_iter()
            .map(|h| h.name)
            .collect();
        let mut hsorted = hnames.clone();
        hsorted.sort();
        assert_eq!(hnames, hsorted, "histogram snapshot must stay name-sorted");
    }

    #[test]
    fn thread_ids_are_small_and_distinct() {
        let a = thread_id();
        let b = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(a, b);
        assert!(a >= 1 && b >= 1);
    }

    fn parse_positive(v: Option<&str>) -> EnvVar<usize> {
        match v {
            None => EnvVar::Unset,
            Some(raw) => match raw.trim().parse::<usize>() {
                Ok(n) if n >= 1 => EnvVar::Value(n),
                _ => EnvVar::Invalid,
            },
        }
    }

    #[test]
    fn env_once_maps_the_three_states() {
        static ONCE: WarnOnce = WarnOnce::new();
        // Unset: the variable name is unique to this test, so it is absent.
        assert_eq!(
            env_once("YALI_TEST_ENV_ONCE_UNSET", &ONCE, "msg", parse_positive),
            None
        );
        std::env::set_var("YALI_TEST_ENV_ONCE_VALUE", " 7 ");
        assert_eq!(
            env_once("YALI_TEST_ENV_ONCE_VALUE", &ONCE, "msg", parse_positive),
            Some(7)
        );
        std::env::set_var("YALI_TEST_ENV_ONCE_BAD", "banana");
        assert_eq!(
            env_once("YALI_TEST_ENV_ONCE_BAD", &ONCE, "msg", parse_positive),
            None
        );
    }

    #[test]
    fn args_walk_flags_and_positionals() {
        let raw: Vec<String> = ["--a", "1", "x", "--a", "2", "--n", "q"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = Args::parse(&raw).unwrap();
        assert_eq!(args.get("a"), Some("2"), "the last of a repeated flag wins");
        assert_eq!(args.positional, ["x"]);
        assert_eq!(args.get_num("a", 0usize), Ok(2));
        assert_eq!(args.get_num("absent", 7u64), Ok(7));
        assert_eq!(args.get_num::<u64>("n", 0), Err("--n \"q\" is not a count".into()));
        assert_eq!(args.require("b").err(), Some("--b is required".into()));
        let raw = vec!["x".to_string(), "--addr".to_string()];
        assert_eq!(Args::parse(&raw).err(), Some("--addr needs a value".into()));
    }

    #[test]
    fn trace_context_derivation_is_deterministic_and_unique() {
        let a = TraceContext::derive(42, 0);
        let b = TraceContext::derive(42, 0);
        assert_eq!(a, b, "same seed + stream must derive the same context");
        let mut seen = std::collections::HashSet::new();
        for stream in 0..512u64 {
            assert!(
                seen.insert(TraceContext::derive(42, stream).trace_id),
                "stream {stream} collided"
            );
        }
        assert_ne!(
            TraceContext::derive(42, 1).trace_id,
            TraceContext::derive(43, 1).trace_id
        );
        assert_eq!(a.parent_span, 0);
        assert_eq!(a.with_parent(7).parent_span, 7);
        assert_eq!(a.with_parent(7).trace_id, a.trace_id);
    }

    #[test]
    fn context_guard_nests_and_restores() {
        assert_eq!(current_context(), None);
        let outer = TraceContext::derive(1, 1);
        let inner = TraceContext::derive(1, 2);
        {
            let _a = push_context(outer);
            assert_eq!(current_context(), Some(outer));
            {
                let _b = push_context(inner);
                assert_eq!(current_context(), Some(inner));
            }
            assert_eq!(current_context(), Some(outer));
        }
        assert_eq!(current_context(), None);
    }

    #[test]
    fn spans_carry_the_current_trace_context_and_the_preamble_stamps_identity() {
        let _lock = GLOBAL_STATE.lock().unwrap();
        set_identity("testrole", Some(3));
        let path = std::env::temp_dir().join("yali_obs_ctx.jsonl");
        let path = path.to_str().unwrap().to_string();
        set_trace_path(Some(&path));
        set_enabled(true);
        let ctx = TraceContext::derive(9, 4).with_parent(11);
        {
            let _g = push_context(ctx);
            let _s = span!("test.ctx.span");
        }
        {
            let _s = span!("test.ctx.bare");
        }
        set_enabled(false);
        set_trace_path(None);
        *IDENTITY.lock().unwrap() = None;
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let first = text.lines().next().unwrap();
        assert!(first.contains("\"ev\":\"preamble\""), "{first}");
        assert!(first.contains("\"role\":\"testrole\""), "{first}");
        assert!(first.contains("\"shard\":3"), "{first}");
        assert!(
            first.contains(&format!("\"pid\":{}", std::process::id())),
            "{first}"
        );
        assert!(first.contains("\"unix_ns\":\"0x"), "{first}");
        let ctx_open = text
            .lines()
            .find(|l| l.contains("test.ctx.span") && l.contains("\"ev\":\"open\""))
            .unwrap();
        assert!(
            ctx_open.contains(&format!("\"trace\":\"{:#018x}\"", ctx.trace_id)),
            "{ctx_open}"
        );
        assert!(
            ctx_open.contains("\"parent\":\"0x000000000000000b\""),
            "{ctx_open}"
        );
        let bare_open = text
            .lines()
            .find(|l| l.contains("test.ctx.bare") && l.contains("\"ev\":\"open\""))
            .unwrap();
        assert!(!bare_open.contains("\"trace\""), "{bare_open}");
    }

    #[test]
    fn warn_once_latches_after_the_first_emission() {
        let once = WarnOnce::new();
        assert!(!once.0.load(Ordering::Relaxed));
        once.warn("test warn-once latch (expected once on stderr)");
        assert!(once.0.load(Ordering::Relaxed));
        // A second warn must be a no-op; the latch stays set.
        once.warn("test warn-once latch (must NOT appear)");
        assert!(once.0.load(Ordering::Relaxed));
    }
}
