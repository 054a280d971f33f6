#include "common/trace.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace scidb {

uint64_t NextTraceId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: unique-id counter, no ordering needed
}

uint64_t NextSpanId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);  // relaxed-ok: unique-id counter, no ordering needed
}

void SpanStore::Add(TraceNode span) {
  MutexLock lock(mu_);
  if (spans_.size() >= max_spans_) {
    spans_.pop_front();
    ++dropped_;
  }
  spans_.push_back(std::move(span));
}

std::vector<TraceNode> SpanStore::Take(uint64_t trace_id) {
  MutexLock lock(mu_);
  std::vector<TraceNode> out;
  for (auto it = spans_.begin(); it != spans_.end();) {
    if (it->trace_id == trace_id) {
      out.push_back(std::move(*it));
      it = spans_.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

size_t SpanStore::size() const {
  MutexLock lock(mu_);
  return spans_.size();
}

int64_t SpanStore::dropped() const {
  MutexLock lock(mu_);
  return dropped_;
}

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string FormatDurationNs(uint64_t ns) {
  char buf[32];
  if (ns >= 1000000000ULL) {
    std::snprintf(buf, sizeof(buf), "%.3f s",
                  static_cast<double>(ns) / 1e9);
  } else if (ns >= 1000000ULL) {
    std::snprintf(buf, sizeof(buf), "%.3f ms",
                  static_cast<double>(ns) / 1e6);
  } else if (ns >= 1000ULL) {
    std::snprintf(buf, sizeof(buf), "%.1f us",
                  static_cast<double>(ns) / 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%llu ns",
                  static_cast<unsigned long long>(ns));
  }
  return buf;
}

namespace {

// One note value, trimmed: integers print bare, ratios keep 3 decimals.
std::string FormatNoteValue(double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

void RenderNode(const TraceNode& node, int depth, bool analyze,
                std::ostringstream* out) {
  for (int i = 0; i < depth; ++i) *out << "  ";
  *out << node.label;
  if (analyze) {
    *out << "  (wall " << FormatDurationNs(node.wall_ns);
    if (node.out_cells >= 0) *out << ", out " << node.out_cells << " cells";
    for (const auto& [key, value] : node.notes) {
      *out << ", " << key << " " << FormatNoteValue(value);
    }
    *out << ")";
  }
  *out << "\n";
  for (const auto& child : node.children) {
    RenderNode(*child, depth + 1, analyze, out);
  }
}

}  // namespace

std::string QueryTrace::ToString(bool analyze) const {
  std::ostringstream out;
  if (analyze) {
    if (!statement.empty()) out << "query: " << statement << "\n";
    out << "parse:    " << FormatDurationNs(parse_ns) << "\n";
    out << "optimize: " << FormatDurationNs(optimize_ns) << "\n";
    out << "execute:  " << FormatDurationNs(execute_ns) << "\n";
  }
  RenderNode(root, 0, analyze, &out);
  return out.str();
}

}  // namespace scidb
