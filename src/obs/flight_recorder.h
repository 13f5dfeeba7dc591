#ifndef HOTSPOT_OBS_FLIGHT_RECORDER_H_
#define HOTSPOT_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace hotspot::obs {

/// What happened, as a fixed-width code. Counters tell you *how much*;
/// these tell you *when and in what order* — the transient state changes
/// that aggregate metrics erase (a promotion landing mid-stream, the first
/// admission reject of an overload episode, a shard's OK→WARN flip).
enum class FlightEventKind : int {
  /// Bundle promotion installed. a = shard (-1 for a bare service),
  /// b = new generation tag.
  kPromotion = 0,
  /// Fleet admission control refused a row. a = PushVerdict code,
  /// b = sector, c = hour.
  kAdmissionReject,
  /// A pipeline's ingress queue made producers wait since the last block.
  /// a = phase index (0, ingest), b = new waits observed.
  kBackpressure,
  /// A pipeline's ingress queue reached a new high-water depth. a = phase
  /// index (0, ingest), b = the new high-water mark.
  kQueueHighWater,
  /// A shard's overall health state changed. a = shard, b = old
  /// AlertState, c = new AlertState.
  kShardHealth,
  /// A monitor ladder signal changed state. a = signal (0 overall,
  /// 1 drift, 2 quality, 3 latency), b = old AlertState, c = new.
  kLadderTransition,
  /// The adaptation controller's ladder moved. a = old AdaptState,
  /// b = new AdaptState, c = champion generation at the transition,
  /// d = the challenger-minus-champion lift delta when one was computed
  /// (0 otherwise).
  kAdaptTransition,
  /// Caller-defined payload.
  kCustom,
};

const char* FlightEventKindName(FlightEventKind kind);

/// One decoded flight event. `sequence` is the global record ticket
/// (monotonic across the whole flight, not just the retained window);
/// `t_ns` is steady-clock nanoseconds since the recorder's construction.
struct FlightEventRecord {
  uint64_t sequence = 0;
  uint64_t t_ns = 0;
  FlightEventKind kind = FlightEventKind::kCustom;
  int64_t a = 0;
  int64_t b = 0;
  int64_t c = 0;
  double d = 0.0;

  std::string ToString() const;
};

/// Fixed-capacity MPMC ring of structured events — the serving stack's
/// flight recorder. Record() is wait-free (one fetch_add plus seven
/// relaxed stores), writers never block each other or any reader, and the
/// ring keeps the newest `capacity` events, overwriting the oldest; the
/// monotonic ticket makes the overwritten count (`dropped()`) exact.
///
/// Memory-order argument (the reason this is TSan-clean by construction
/// rather than a seqlock that merely "works in practice"):
///
///   - A writer claims a ticket with head_.fetch_add (relaxed: tickets
///     only need uniqueness, not ordering), then walks the slot through a
///     per-slot sequence word: seq = 2·ticket+1 (release, "writing"),
///     payload stores (relaxed), seq = 2·ticket+2 (release, "complete").
///   - A reader accepts a slot only when seq reads 2·ticket+2 *both
///     before and after* copying the payload (acquire loads). The first
///     acquire synchronizes with the writer's final release, so the
///     payload the reader copies happens-after the writer's stores; the
///     second load rejects slots a lapping writer touched mid-copy.
///   - Every payload field is a std::atomic accessed relaxed, so even a
///     racing read of a slot that is later rejected is a defined read of
///     a stale value, never UB — which is exactly what ThreadSanitizer
///     checks. Two writers one full lap apart can interleave on a slot;
///     the sequence check discards such torn slots (best-effort loss of
///     an already-overwritten event, never a fabricated one).
///
/// Observability discipline: recording never feeds back into serving, and
/// a recorder is only reached through PipelineContext, so a null context
/// keeps the hot paths event-free.
class FlightRecorder {
 public:
  /// `capacity` is rounded up to a power of two (min 2).
  explicit FlightRecorder(int capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  static constexpr int kDefaultCapacity = 4096;

  /// Appends one event. Wait-free; safe from any thread, including pool
  /// workers and pipeline workers concurrently.
  void Record(FlightEventKind kind, int64_t a = 0, int64_t b = 0,
              int64_t c = 0, double d = 0.0);

  /// Events recorded over the recorder's lifetime (including overwritten
  /// ones) and how many the ring has overwritten.
  uint64_t recorded() const {
    return head_.load(std::memory_order_relaxed);
  }
  uint64_t dropped() const;
  uint64_t capacity() const { return static_cast<uint64_t>(slots_.size()); }

  /// Copies the retained window, oldest first, skipping slots a
  /// concurrent writer holds torn. Safe during recording.
  std::vector<FlightEventRecord> Snapshot() const;

  /// Full dump as a JSON object: {"schema":"hotspot.flight.v1",
  /// "capacity":…, "recorded":…, "dropped":…, "events":[{"seq":…,
  /// "t_ns":…, "kind":"promotion", "a":…, "b":…, "c":…, "d":…}, …]}.
  std::string ToJson() const;

  /// Writes ToJson() to `path`. Returns false on I/O error.
  bool DumpToJson(const std::string& path) const;

  /// Async-signal-safe best-effort dump: one text line per retained event
  /// written straight to `fd` with write(2) — no allocation, no locks, no
  /// stdio — so it is callable from a fatal-signal handler. Returns the
  /// number of events written.
  int DumpRawTo(int fd) const;

  /// Registers `recorder` (one per process; the last call wins) for a
  /// best-effort DumpRawTo at std::atexit and, when `fatal_signals` is
  /// true, on SIGABRT/SIGSEGV/SIGBUS — after which the previous handler
  /// disposition is restored and the signal re-raised. The dump target is
  /// the file at `path`, created/truncated at dump time. Pass null to
  /// unregister (do this before the recorder is destroyed).
  static void InstallExitDump(const FlightRecorder* recorder,
                              const std::string& path,
                              bool fatal_signals = false);

  /// Drops every retained event and rewinds the ticket counter. Not safe
  /// against concurrent Record — quiesce writers first (the same contract
  /// as PipelineContext::Reset).
  void Reset();

 private:
  struct Slot {
    std::atomic<uint64_t> seq{0};  ///< 0 empty; 2t+1 writing; 2t+2 done
    std::atomic<uint64_t> t_ns{0};
    std::atomic<int> kind{0};
    std::atomic<int64_t> a{0};
    std::atomic<int64_t> b{0};
    std::atomic<int64_t> c{0};
    std::atomic<double> d{0.0};
  };

  uint64_t NowNs() const;
  bool ReadSlot(uint64_t ticket, FlightEventRecord* out) const;

  std::vector<Slot> slots_;
  uint64_t mask_ = 0;
  std::atomic<uint64_t> head_{0};
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace hotspot::obs

#endif  // HOTSPOT_OBS_FLIGHT_RECORDER_H_
