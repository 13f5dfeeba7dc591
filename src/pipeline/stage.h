#ifndef HOTSPOT_PIPELINE_STAGE_H_
#define HOTSPOT_PIPELINE_STAGE_H_

#include <chrono>
#include <cstdint>
#include <string>

#include "pipeline/bounded_queue.h"

namespace hotspot::pipeline {

/// One serving phase's accounting (ingest, features, predict or monitor),
/// readable from any thread while the pipeline runs. The phases run inline
/// on the pipeline's worker thread; each is timed with one clock pair per
/// block or batch it handles.
struct StageStats {
  std::string name;
  uint64_t items_in = 0;   ///< items the phase handled
  uint64_t items_out = 0;  ///< items it handed on to the next phase
  double busy_seconds = 0.0;  ///< wall time spent inside the phase
  /// The phase's input queue: the pipeline's ingress queue for ingest
  /// (depth = blocks waiting for the worker); all-zero for the other
  /// phases, which take their input inline and have no queue.
  QueueStats input;
};

/// Steady-clock nanoseconds since an arbitrary process epoch — the
/// timestamp base every block-residency stamp in the serving stack shares
/// (RowBlock::born_ns, StreamingPrediction::born_ns, the fleet's
/// admission stamps), so residencies are plain subtractions.
inline uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace hotspot::pipeline

#endif  // HOTSPOT_PIPELINE_STAGE_H_
