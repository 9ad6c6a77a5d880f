#include "serve/flight_recorder.h"

#include <algorithm>

namespace ba::serve {

std::string FlightRecorder::Entry::ToJson() const {
  std::string out;
  out += "{\"seq\":" + std::to_string(seq);
  out += ",\"address\":" + std::to_string(address);
  out += ",\"timeline\":" + timeline.ToJson() + "}";
  return out;
}

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(std::max<size_t>(capacity, 1)),
      slots_(std::make_unique<Slot[]>(capacity_)) {}

void FlightRecorder::Record(uint64_t address,
                            const RequestTimeline& timeline) {
  const uint64_t seq = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq % capacity_];
  std::lock_guard<std::mutex> lock(slot.mu);
  slot.entry.seq = seq;
  slot.entry.address = address;
  slot.entry.timeline = timeline;
  slot.filled = true;
}

std::vector<FlightRecorder::Entry> FlightRecorder::Snapshot(
    size_t max_entries) const {
  std::vector<Entry> entries;
  // The collection loop visits every slot regardless of max_entries, so
  // reserve for the worst case — reserving min(capacity, max_entries)
  // would just reallocate mid-loop on a full ring.
  entries.reserve(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    const Slot& slot = slots_[i];
    std::lock_guard<std::mutex> lock(slot.mu);
    if (slot.filled) entries.push_back(slot.entry);
  }
  // Only the newest max_entries are ordered. The ring yields entries in
  // ascending seq order, partial_sort's worst case (every entry would
  // displace its heap top); nth_element selects them in linear time,
  // so a truncated snapshot never costs more than sorting the full one.
  const auto newer = [](const Entry& a, const Entry& b) {
    return a.seq > b.seq;
  };
  const auto top_end =
      entries.begin() +
      static_cast<ptrdiff_t>(std::min(max_entries, entries.size()));
  std::nth_element(entries.begin(), top_end, entries.end(), newer);
  std::sort(entries.begin(), top_end, newer);
  entries.erase(top_end, entries.end());
  return entries;
}

std::optional<FlightRecorder::Entry> FlightRecorder::Find(
    uint64_t trace_id) const {
  std::optional<Entry> best;
  for (size_t i = 0; i < capacity_; ++i) {
    const Slot& slot = slots_[i];
    std::lock_guard<std::mutex> lock(slot.mu);
    if (!slot.filled || slot.entry.timeline.trace_id != trace_id) continue;
    if (!best.has_value() || slot.entry.seq > best->seq) best = slot.entry;
  }
  return best;
}

std::string FlightRecorder::ToJson(size_t max_entries) const {
  const std::vector<Entry> entries = Snapshot(max_entries);
  std::string out = "[";
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out += ",";
    out += entries[i].ToJson();
  }
  out += "]";
  return out;
}

}  // namespace ba::serve
