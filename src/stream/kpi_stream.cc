#include "stream/kpi_stream.h"

#include "obs/pipeline_context.h"
#include "util/logging.h"

namespace hotspot::stream {

void KpiStreamIngestor::Counters::Refresh() {
  obs::PipelineContext* ctx = obs::PipelineContext::Current();
  if (ctx == context) return;
  context = ctx;
  if (ctx == nullptr) {
    offered = accepted = reordered = duplicate = late = rejected =
        gap_filled = nullptr;
    return;
  }
  obs::MetricsRegistry& metrics = ctx->metrics();
  offered = &metrics.counter("stream/rows_offered");
  accepted = &metrics.counter("stream/rows_accepted");
  reordered = &metrics.counter("stream/rows_reordered");
  duplicate = &metrics.counter("stream/rows_duplicate_dropped");
  late = &metrics.counter("stream/rows_late_dropped");
  rejected = &metrics.counter("stream/rows_rejected");
  gap_filled = &metrics.counter("stream/rows_gap_filled");
}

KpiStreamIngestor::KpiStreamIngestor(const IngestorConfig& config,
                                     KpiRowSink sink)
    : config_(config), sink_(std::move(sink)) {
  HOTSPOT_CHECK_GT(config_.num_sectors, 0);
  HOTSPOT_CHECK_GT(config_.num_kpis, 0);
  HOTSPOT_CHECK_GE(config_.watermark_hours, 0);
  HOTSPOT_CHECK_GT(config_.ring_hours, config_.watermark_hours);
  HOTSPOT_CHECK(sink_ != nullptr);
  sectors_.resize(static_cast<size_t>(config_.num_sectors));
  for (SectorState& state : sectors_) {
    state.ring.assign(static_cast<size_t>(config_.ring_hours) *
                          static_cast<size_t>(config_.num_kpis),
                      0.0f);
    state.filled.assign(static_cast<size_t>(config_.ring_hours), 0);
  }
  gap_row_.assign(static_cast<size_t>(config_.num_kpis), MissingValue());
}

void KpiStreamIngestor::Advance(int sector, SectorState* state,
                                bool to_end) {
  const int horizon =
      to_end ? state->max_seen : state->max_seen - config_.watermark_hours;
  while (true) {
    const size_t slot = static_cast<size_t>(
        state->next_flush % config_.ring_hours);
    if (state->filled[slot]) {
      sink_(sector, state->next_flush,
            state->ring.data() + slot * static_cast<size_t>(config_.num_kpis),
            config_.num_kpis);
      state->filled[slot] = 0;
    } else if (state->next_flush < horizon) {
      // The watermark passed an hour no row arrived for: finalize it as
      // all-missing so one straggler cannot stall the sector forever.
      sink_(sector, state->next_flush, gap_row_.data(), config_.num_kpis);
      if (counters_.gap_filled != nullptr) counters_.gap_filled->Increment();
    } else {
      break;
    }
    ++state->next_flush;
  }
}

PushResult KpiStreamIngestor::Push(int sector, int hour, const float* values,
                                   int num_kpis) {
  counters_.Refresh();
  if (counters_.offered != nullptr) counters_.offered->Increment();
  if (sector < 0 || sector >= config_.num_sectors || hour < 0 ||
      num_kpis != config_.num_kpis || values == nullptr) {
    if (counters_.rejected != nullptr) counters_.rejected->Increment();
    return PushResult::kRejected;
  }
  SectorState& state = sectors_[static_cast<size_t>(sector)];
  if (hour == state.next_flush && hour > state.max_seen) {
    // The sector's next hour with nothing buffered (next_flush never
    // passes max_seen + 1): the row is final as it arrives, so it goes to
    // the sink from the caller's buffer. The ring path would store it,
    // emit it at once and find no successor — the same calls and counts.
    state.max_seen = hour;
    if (counters_.accepted != nullptr) counters_.accepted->Increment();
    sink_(sector, hour, values, num_kpis);
    ++state.next_flush;
    return PushResult::kAccepted;
  }
  if (hour < state.next_flush) {
    // Already finalized — a duplicate of a flushed row or a row beyond
    // the watermark; either way it cannot be applied in order anymore.
    if (counters_.late != nullptr) counters_.late->Increment();
    return PushResult::kLate;
  }
  if (hour > state.max_seen) {
    // A forward jump may strand hours beyond the ring; move the watermark
    // frontier first so occupancy stays within watermark_hours + 1.
    state.max_seen = hour;
    Advance(sector, &state, /*to_end=*/false);
  } else if (counters_.reordered != nullptr) {
    counters_.reordered->Increment();
  }
  const size_t slot = static_cast<size_t>(hour % config_.ring_hours);
  if (state.filled[slot]) {
    if (counters_.duplicate != nullptr) counters_.duplicate->Increment();
    return PushResult::kDuplicate;  // first row wins
  }
  float* dst =
      state.ring.data() + slot * static_cast<size_t>(config_.num_kpis);
  for (int k = 0; k < config_.num_kpis; ++k) dst[k] = values[k];
  state.filled[slot] = 1;
  if (counters_.accepted != nullptr) counters_.accepted->Increment();
  Advance(sector, &state, /*to_end=*/false);
  return PushResult::kAccepted;
}

void KpiStreamIngestor::Flush() {
  counters_.Refresh();
  for (int i = 0; i < config_.num_sectors; ++i) {
    Advance(i, &sectors_[static_cast<size_t>(i)], /*to_end=*/true);
  }
}

int KpiStreamIngestor::FlushedHours(int sector) const {
  HOTSPOT_CHECK(sector >= 0 && sector < config_.num_sectors);
  return sectors_[static_cast<size_t>(sector)].next_flush;
}

}  // namespace hotspot::stream
