#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <ostream>

#include "obs/metrics.hpp"
#include "support/json.hpp"
#include "support/num_format.hpp"

namespace kcoup::obs {

namespace {

using support::json::escape;

/// Truncating copy into a fixed annotation buffer, always NUL-terminated.
template <std::size_t N>
void copy_truncated(std::array<char, N>& dst, std::string_view src) {
  const std::size_t n = std::min(src.size(), N - 1);
  std::memcpy(dst.data(), src.data(), n);
  dst[n] = '\0';
}

struct ExportEvent {
  const Span* span = nullptr;
  std::uint32_t tid = 0;
};

}  // namespace

// --- Tracer ------------------------------------------------------------------

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable() {
  // First enable pins the epoch so exported timestamps start near zero.
  if (!epoch_set_.exchange(true, std::memory_order_acq_rel)) {
    epoch_ = std::chrono::steady_clock::now();
  }
  enabled_.store(true, std::memory_order_release);
}

void Tracer::disable() { enabled_.store(false, std::memory_order_release); }

std::uint64_t Tracer::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

SpanRing* Tracer::writer() {
  // One ring per live thread, cached after the first call.  The holder's
  // destructor releases the ring back to the freelist on thread exit; the
  // ring itself (and the spans in it) stay alive for export.
  struct RingHolder {
    SpanRing* ring = nullptr;
    ~RingHolder() {
      if (ring != nullptr) {
        ring->claimed_.store(false, std::memory_order_release);
      }
    }
  };
  static thread_local RingHolder holder;
  if (holder.ring != nullptr) return holder.ring;

  std::lock_guard<std::mutex> lock(rings_mutex_);
  for (const auto& ring : rings_) {
    bool expected = false;
    if (ring->claimed_.compare_exchange_strong(expected, true,
                                               std::memory_order_acq_rel)) {
      holder.ring = ring.get();
      return holder.ring;
    }
  }
  auto ring = std::make_unique<SpanRing>();
  ring->thread_id_ = static_cast<std::uint32_t>(rings_.size());
  ring->claimed_.store(true, std::memory_order_release);
  rings_.push_back(std::move(ring));
  holder.ring = rings_.back().get();
  return holder.ring;
}

std::uint64_t Tracer::spans_recorded() const {
  std::lock_guard<std::mutex> lock(rings_mutex_);
  std::uint64_t total = 0;
  for (const auto& ring : rings_) total += ring->published();
  return total;
}

std::uint64_t Tracer::spans_dropped() const {
  std::lock_guard<std::mutex> lock(rings_mutex_);
  std::uint64_t dropped = 0;
  for (const auto& ring : rings_) {
    dropped += ring->published() - ring->resident();
  }
  return dropped;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(rings_mutex_);
  for (const auto& ring : rings_) {
    ring->head_.store(0, std::memory_order_release);
  }
}

void Tracer::write_chrome_trace(std::ostream& out) const {
  // Chrome trace-event format: one complete ("ph":"X") event per span,
  // timestamps and durations in microseconds.  Events are sorted by start
  // time (then tid) so the same set of spans always serializes identically.
  std::vector<ExportEvent> events;
  {
    std::lock_guard<std::mutex> lock(rings_mutex_);
    for (const auto& ring : rings_) {
      const std::uint64_t published = ring->published();
      const std::uint64_t resident =
          published < SpanRing::kCapacity ? published : SpanRing::kCapacity;
      const std::uint64_t first = published - resident;
      for (std::uint64_t i = first; i < published; ++i) {
        const Span& span = ring->slots_[i % SpanRing::kCapacity];
        events.push_back(ExportEvent{&span, ring->thread_id_});
      }
    }
  }
  std::sort(events.begin(), events.end(),
            [](const ExportEvent& a, const ExportEvent& b) {
              if (a.span->start_ns != b.span->start_ns) {
                return a.span->start_ns < b.span->start_ns;
              }
              return a.tid < b.tid;
            });

  out << "{\"traceEvents\":[";
  bool first_event = true;
  for (const ExportEvent& e : events) {
    const Span& s = *e.span;
    if (!first_event) out << ",\n";
    first_event = false;
    out << "{\"ph\":\"X\",\"name\":\"" << escape(s.name)
        << "\",\"cat\":\"" << escape(s.category) << "\",\"ts\":"
        << support::format_double(static_cast<double>(s.start_ns) / 1000.0)
        << ",\"dur\":"
        << support::format_double(static_cast<double>(s.duration_ns) / 1000.0)
        << ",\"pid\":1,\"tid\":" << e.tid;
    if (s.annotation_count != 0) {
      out << ",\"args\":{";
      for (std::uint32_t a = 0; a < s.annotation_count; ++a) {
        if (a != 0) out << ',';
        out << '"' << escape(s.annotations[a].key.data()) << "\":\""
            << escape(s.annotations[a].value.data()) << '"';
      }
      out << '}';
    }
    out << '}';
  }
  out << "],\"displayTimeUnit\":\"ms\"}\n";
}

bool Tracer::write_chrome_trace_file(const std::string& path) const {
  // Temp-file + rename, mirroring CouplingDatabase::save_csv_file: a crash
  // mid-flush never leaves a truncated trace where a previous good one was.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return false;
    write_chrome_trace(out);
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      return false;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

void export_tracer_metrics(MetricsRegistry& registry) {
  Tracer& tracer = Tracer::instance();
  registry.gauge("obs.trace.spans_recorded")
      .set(static_cast<double>(tracer.spans_recorded()));
  registry.gauge("obs.trace.dropped_spans")
      .set(static_cast<double>(tracer.spans_dropped()));
}

// --- ScopedSpan --------------------------------------------------------------

void ScopedSpan::annotate(const char* key, std::string_view value) {
  if (tracer_ == nullptr) return;
  if (annotation_count_ >= Span::kMaxAnnotations) return;  // extras dropped
  SpanAnnotation& a = annotations_[annotation_count_++];
  copy_truncated(a.key, key);
  copy_truncated(a.value, value);
}

void ScopedSpan::annotate(const char* key, std::uint64_t value) {
  if (tracer_ == nullptr) return;
  char buf[24];
  std::snprintf(buf, sizeof buf, "%llu",
                static_cast<unsigned long long>(value));
  annotate(key, std::string_view(buf));
}

void ScopedSpan::annotate(const char* key, bool value) {
  if (tracer_ == nullptr) return;
  annotate(key, value ? std::string_view("true") : std::string_view("false"));
}

void ScopedSpan::commit() {
  const std::uint64_t end_ns = tracer_->now_ns();
  SpanRing* ring = tracer_->writer();
  Span& slot = ring->slot_for_write();
  slot.name = name_;
  slot.category = category_;
  slot.start_ns = start_ns_;
  slot.duration_ns = end_ns >= start_ns_ ? end_ns - start_ns_ : 0;
  slot.annotation_count = annotation_count_;
  for (std::uint32_t i = 0; i < annotation_count_; ++i) {
    slot.annotations[i] = annotations_[i];
  }
  ring->publish();
}

}  // namespace kcoup::obs
