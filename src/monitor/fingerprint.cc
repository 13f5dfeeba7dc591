#include "monitor/fingerprint.h"

#include <algorithm>
#include <cmath>

#include "stats/percentile.h"
#include "util/logging.h"
#include "util/rng.h"

namespace hotspot::monitor {

std::vector<double> SketchQuantileGrid() {
  return {1, 5, 10, 25, 50, 75, 90, 95, 99};
}

DistributionSketch BuildSketch(std::string name,
                               const std::vector<float>& values,
                               int reservoir_capacity, uint64_t seed) {
  HOTSPOT_CHECK_GE(reservoir_capacity, 1);
  DistributionSketch sketch;
  sketch.name = std::move(name);
  sketch.quantile_ps = SketchQuantileGrid();
  // The radix order may place a -0 and a +0 differently from std::sort,
  // but the grid never reads the last value alone, and an interpolation
  // that starts at a zero gives the same bits in either order: these are
  // Percentiles()' quantiles bit for bit.
  sketch.quantiles = RadixPercentiles(values, sketch.quantile_ps);
  sketch.mean = Mean(values);
  sketch.stddev = StdDev(values);

  // Algorithm-R reservoir over the finite values, then sorted so the KS
  // merge pass can consume it directly.
  Rng rng(seed);
  uint64_t seen = 0;
  for (float value : values) {
    if (!std::isfinite(value)) continue;
    ++seen;
    if (sketch.reservoir.size() <
        static_cast<size_t>(reservoir_capacity)) {
      sketch.reservoir.push_back(value);
    } else {
      uint64_t slot = static_cast<uint64_t>(
          rng.UniformInt(0, static_cast<int64_t>(seen) - 1));
      if (slot < static_cast<uint64_t>(reservoir_capacity)) {
        sketch.reservoir[static_cast<size_t>(slot)] = value;
      }
    }
  }
  sketch.count = seen;
  std::sort(sketch.reservoir.begin(), sketch.reservoir.end());
  return sketch;
}

namespace {

void EncodeSketch(const DistributionSketch& sketch,
                  serialize::ByteWriter* writer) {
  writer->WriteString(sketch.name);
  writer->WriteU64(sketch.count);
  writer->WriteF64(sketch.mean);
  writer->WriteF64(sketch.stddev);
  writer->WriteF64Vector(sketch.quantile_ps);
  writer->WriteF64Vector(sketch.quantiles);
  writer->WriteF32Vector(sketch.reservoir);
}

bool DecodeSketch(serialize::ByteReader* reader,
                  DistributionSketch* sketch) {
  sketch->name = reader->ReadString();
  sketch->count = reader->ReadU64();
  sketch->mean = reader->ReadF64();
  sketch->stddev = reader->ReadF64();
  sketch->quantile_ps = reader->ReadF64Vector();
  sketch->quantiles = reader->ReadF64Vector();
  sketch->reservoir = reader->ReadF32Vector();
  if (!reader->ok()) return false;
  if (sketch->quantiles.size() != sketch->quantile_ps.size()) {
    reader->Fail("fingerprint sketch quantile grid/value size mismatch");
    return false;
  }
  if (!std::is_sorted(sketch->reservoir.begin(),
                      sketch->reservoir.end())) {
    reader->Fail("fingerprint sketch reservoir is not sorted");
    return false;
  }
  return true;
}

}  // namespace

void EncodeFingerprints(const BundleFingerprints& fingerprints,
                        serialize::ByteWriter* writer) {
  writer->WriteI32(fingerprints.first_hour);
  writer->WriteI32(fingerprints.last_hour);
  writer->WriteU32(static_cast<uint32_t>(fingerprints.channels.size()));
  for (const DistributionSketch& sketch : fingerprints.channels) {
    EncodeSketch(sketch, writer);
  }
  EncodeSketch(fingerprints.scores, writer);
}

bool DecodeFingerprints(serialize::ByteReader* reader,
                        BundleFingerprints* fingerprints) {
  fingerprints->first_hour = reader->ReadI32();
  fingerprints->last_hour = reader->ReadI32();
  uint32_t num_channels = reader->ReadU32();
  if (!reader->ok()) return false;
  if (fingerprints->first_hour < 0 ||
      fingerprints->last_hour < fingerprints->first_hour) {
    reader->Fail("fingerprint hour span out of range");
    return false;
  }
  // One sketch costs well over a byte; gate before the resize so a
  // corrupted count cannot drive a huge allocation.
  if (num_channels > reader->remaining()) {
    reader->Fail("fingerprint channel count exceeds payload");
    return false;
  }
  fingerprints->channels.resize(num_channels);
  for (DistributionSketch& sketch : fingerprints->channels) {
    if (!DecodeSketch(reader, &sketch)) return false;
  }
  return DecodeSketch(reader, &fingerprints->scores);
}

}  // namespace hotspot::monitor
