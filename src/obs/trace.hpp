#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace kcoup::obs {

/// One key=value attached to a span.  Fixed-size character buffers so
/// recording a span never allocates; oversized keys/values are truncated.
/// Deliberately no member initializers: a ScopedSpan embeds an array of
/// these, and zeroing it would put ~300 bytes of memset on the
/// tracing-disabled path.  annotate() NUL-terminates what it writes and
/// readers stop at the NUL, so the tail bytes are never interpreted.
struct SpanAnnotation {
  std::array<char, 24> key;
  std::array<char, 48> value;
};

/// One completed span.  `name` and `category` must be string literals (or
/// other static-duration strings): spans outlive the scopes that record
/// them, and storing pointers keeps the record path allocation-free.
struct Span {
  /// The most any span records: a hot reload's snapshot_reload span.
  static constexpr std::size_t kMaxAnnotations = 5;

  const char* name = nullptr;
  const char* category = nullptr;
  std::uint64_t start_ns = 0;     ///< steady-clock ns since the tracer epoch
  std::uint64_t duration_ns = 0;
  std::uint32_t annotation_count = 0;
  std::array<SpanAnnotation, kMaxAnnotations> annotations;
};

/// Fixed-capacity per-thread span store.  The owning thread writes slots and
/// publishes them by bumping the atomic head; no lock is ever taken on the
/// record path.  When the ring wraps, the oldest spans are overwritten and
/// counted as dropped — tracing is a window onto recent activity, never a
/// source of unbounded memory growth.
///
/// Readers (the Chrome-trace exporter) must only run while writers are
/// quiescent: the process flushes traces after thread pools have been
/// drained and joined, which establishes the necessary happens-before.
class SpanRing {
 public:
  static constexpr std::size_t kCapacity = 8192;

  SpanRing() : slots_(kCapacity) {}

  /// The slot the next span should be written into (owner thread only).
  [[nodiscard]] Span& slot_for_write() {
    return slots_[head_.load(std::memory_order_relaxed) % kCapacity];
  }

  /// Publish the slot written by slot_for_write() (owner thread only).
  void publish() { head_.fetch_add(1, std::memory_order_release); }

  /// Spans published over this ring's lifetime (reader side).
  [[nodiscard]] std::uint64_t published() const {
    return head_.load(std::memory_order_acquire);
  }
  /// Spans still resident (the rest were overwritten by ring wrap).
  [[nodiscard]] std::uint64_t resident() const {
    const std::uint64_t n = published();
    return n < kCapacity ? n : kCapacity;
  }

  [[nodiscard]] std::uint32_t thread_id() const { return thread_id_; }

 private:
  friend class Tracer;

  std::vector<Span> slots_;
  std::atomic<std::uint64_t> head_{0};
  std::uint32_t thread_id_ = 0;       ///< small stable id assigned by Tracer
  std::atomic<bool> claimed_{false};  ///< freelist flag: a live thread owns it
};

/// Process-wide tracer: owns every thread's span ring, the enable flag, and
/// the Chrome trace-event exporter.
///
/// The hot path is designed so that when tracing is disabled the entire
/// instrumentation cost is one relaxed atomic load and a branch (verified by
/// bench/ext_trace_overhead.cpp).  When enabled, recording a span is a
/// steady-clock read at scope entry/exit plus a handful of stores into the
/// calling thread's ring — no locks, no allocation.
///
/// Rings are recycled: when a thread exits, its ring returns to a freelist
/// and the next new thread reuses it (claim/release are acquire/release, so
/// handoff is race-free).  Ring contents survive thread exit, which is what
/// lets a campaign export spans recorded by pool workers after the pool has
/// been destroyed.
class Tracer {
 public:
  /// The process-wide instance.
  static Tracer& instance();

  /// Turn span recording on.  The first enable() sets the trace epoch (span
  /// timestamps are relative to it).
  void enable();
  void disable();
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Steady-clock nanoseconds since the trace epoch.
  [[nodiscard]] std::uint64_t now_ns() const;

  /// The calling thread's ring, claiming (or creating) one on first use.
  /// Cached in a thread_local, so the amortised cost is a pointer read.
  [[nodiscard]] SpanRing* writer();

  /// Total spans published across all rings (resident or overwritten).
  [[nodiscard]] std::uint64_t spans_recorded() const;
  /// Spans lost to ring wrap, across all rings.
  [[nodiscard]] std::uint64_t spans_dropped() const;

  /// Serialize every resident span as Chrome trace-event JSON (the format
  /// chrome://tracing and Perfetto load).  Writers must be quiescent (pools
  /// drained / threads joined); output is deterministic for a given set of
  /// spans (events sorted by start time).
  void write_chrome_trace(std::ostream& out) const;

  /// write_chrome_trace() to `path` via temp-file + atomic rename; returns
  /// false (never throws) on I/O failure so exit paths can flush safely.
  [[nodiscard]] bool write_chrome_trace_file(const std::string& path) const;

  /// Drop every recorded span (writers must be quiescent).  The enable flag
  /// and epoch are unchanged.  Intended for tests and benches that measure
  /// several phases in one process.
  void clear();

 private:
  Tracer();

  mutable std::mutex rings_mutex_;
  std::vector<std::unique_ptr<SpanRing>> rings_;
  std::atomic<bool> enabled_{false};
  std::chrono::steady_clock::time_point epoch_;
  std::atomic<bool> epoch_set_{false};
};

class MetricsRegistry;

/// Mirror the tracer's span accounting into a registry so silent span loss
/// under load is visible wherever metrics are scraped:
/// "obs.trace.spans_recorded" and "obs.trace.dropped_spans" gauges (levels
/// of monotone tracer-side totals — gauges because the registry's counters
/// are add-only and the tracer already owns the canonical count).  The
/// server refreshes these on every stats/metrics read.
void export_tracer_metrics(MetricsRegistry& registry);

/// RAII span: construction samples the start time, destruction publishes the
/// span into the calling thread's ring.  When the tracer is disabled at
/// construction the object is inert — no clock read, no ring access — and
/// annotate() calls are no-ops.
///
///   {
///     obs::ScopedSpan span("task", "campaign");
///     span.annotate("key", to_string(task.key));
///     ...work...
///   }  // span recorded here
class ScopedSpan {
 public:
  /// `record == false` keeps the span inert regardless of the tracer state
  /// (e.g. simmpi records phase boundaries from rank 0 only).
  ScopedSpan(const char* name, const char* category, bool record = true)
      : name_(name), category_(category) {
    if (!record) return;
    Tracer& tracer = Tracer::instance();
    if (!tracer.enabled()) return;  // disabled: a load and this branch
    tracer_ = &tracer;
    start_ns_ = tracer.now_ns();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (tracer_ != nullptr) commit();
  }

  /// True when the span is actually recording (tracer was enabled).
  [[nodiscard]] bool active() const { return tracer_ != nullptr; }

  /// End the span now instead of at scope exit (idempotent; the destructor
  /// becomes a no-op).  Use when the interesting region ends mid-scope.
  void finish() {
    if (tracer_ != nullptr) {
      commit();
      tracer_ = nullptr;
    }
  }

  void annotate(const char* key, std::string_view value);
  void annotate(const char* key, std::uint64_t value);
  void annotate(const char* key, bool value);
  /// Without this overload a string literal would convert to bool (a
  /// standard conversion, preferred over the one to string_view).
  void annotate(const char* key, const char* value) {
    annotate(key, std::string_view(value));
  }

 private:
  void commit();

  const char* name_;
  const char* category_;
  Tracer* tracer_ = nullptr;
  std::uint64_t start_ns_ = 0;
  std::uint32_t annotation_count_ = 0;
  std::array<SpanAnnotation, Span::kMaxAnnotations> annotations_;
};

}  // namespace kcoup::obs
