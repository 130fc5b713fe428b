#include "obs/span_recorder.h"

#include <cassert>

namespace ccdem::obs {

const char* phase_name(Phase p) {
  switch (p) {
    case Phase::kCompose: return "compose";
    case Phase::kMeter: return "meter";
    case Phase::kGovern: return "govern";
    case Phase::kPanelPresent: return "panel_present";
    case Phase::kRecover: return "recover";
    case Phase::kArbiter: return "arbiter";
    case Phase::kDegrade: return "degrade";
  }
  return "unknown";
}

std::optional<Phase> phase_from_name(std::string_view name) {
  for (int i = 0; i < kPhaseCount; ++i) {
    const Phase p = static_cast<Phase>(i);
    if (name == phase_name(p)) return p;
  }
  return std::nullopt;
}

SpanRecorder::SpanRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void SpanRecorder::append(const Span& span) {
  if (ring_.capacity() < capacity_) ring_.reserve(capacity_);
  ring_.push_back(span);
}

std::vector<Span> SpanRecorder::spans() const {
  // Before the first wrap the ring holds exactly the recorded spans, oldest
  // at 0; once full, the oldest sits at head_.
  std::vector<Span> out;
  out.reserve(ring_.size());
  const std::size_t oldest = ring_.size() < capacity_ ? 0 : head_;
  out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(oldest),
             ring_.end());
  out.insert(out.end(), ring_.begin(),
             ring_.begin() + static_cast<std::ptrdiff_t>(oldest));
  return out;
}

void SpanRecorder::clear() {
  ring_.clear();  // keeps the reserved storage
  head_ = 0;
  recorded_ = 0;
}

}  // namespace ccdem::obs
