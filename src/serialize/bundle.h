#ifndef HOTSPOT_SERIALIZE_BUNDLE_H_
#define HOTSPOT_SERIALIZE_BUNDLE_H_

#include <memory>
#include <string>

#include "core/forecaster.h"
#include "ml/flat_tree.h"
#include "monitor/fingerprint.h"
#include "serialize/model_io.h"

namespace hotspot::serialize {

/// One trained forecasting cell packaged for serving: the classifier, the
/// operator scoring configuration its labels came from, the feature-window
/// spec a server needs to turn incoming KPI windows into the rows the
/// classifier was trained on, and the training-window distribution
/// fingerprints the online drift monitor tests live traffic against.
///
/// A bundle is servable iff `model` is one of the classifier kinds (kTree,
/// kRfRaw, kRfF1, kRfF2, kGbdt) and `classifier` is trained — the only
/// states Save/Load produce. `fingerprints` may be null: the section is
/// optional, and such bundles serve with monitoring gracefully disabled.
///
/// Provenance stamp of a bundle produced by the continual-learning loop
/// (src/adapt): which champion it was retrained from and on what data.
/// Optional — offline-trained bundles carry none — and round-trips
/// through the codec as its own section, so a promoted challenger keeps
/// its ancestry across save/load/clone.
struct BundleLineage {
  /// Generation tag of the champion that was serving when this bundle was
  /// trained (the ForecastService generation the retrain forked from).
  uint64_t parent_generation = 0;
  /// Ordinal of the retrain that produced this bundle (1 = first retrain
  /// of the controller's lifetime).
  uint32_t retrain_index = 0;
  /// Stream day the training window ended at (the retrain's day t in
  /// stream coordinates).
  int32_t trained_end_day = 0;
  /// Producer tag, e.g. "adapt/drift" or "adapt/test_override".
  std::string source;
};

/// `flat` is the classifier compiled into the SoA predict engine
/// (ml::FlatForest) that ForecastService serves through. It is derived,
/// never serialized: the two places that create bundles fill it —
/// Forecaster::TrainBundle and DecodeBundle, each with one
/// FlatForest::Compile.
struct ForecastBundle {
  ModelKind model = ModelKind::kGbdt;
  int window_days = 7;   ///< w of Eq. 6: the classifier reads 24·w hours
  int horizon_days = 1;  ///< h: predictions are for day t+h
  int num_channels = 0;  ///< channel count of the training feature tensor
  int feature_dim = 0;   ///< classifier input dimensionality
  ScoreConfig score;
  std::unique_ptr<ml::BinaryClassifier> classifier;
  std::unique_ptr<monitor::BundleFingerprints> fingerprints;
  std::unique_ptr<ml::FlatForest> flat;
  std::unique_ptr<BundleLineage> lineage;
};

/// Payload codec; Decode returns null with the reason in reader->error().
/// The payload frames each part (score config, classifier, fingerprints,
/// lineage) as a section carrying its own version, so
/// version skew is reported per section by name. Decode compiles `flat`
/// from the decoded classifier.
void EncodeBundle(const ForecastBundle& bundle, ByteWriter* writer);
std::unique_ptr<ForecastBundle> DecodeBundle(ByteReader* reader);

/// Whole-file save/load in the versioned checksummed container.
Status SaveBundle(const std::string& path, const ForecastBundle& bundle);
Status LoadBundle(const std::string& path,
                  std::unique_ptr<ForecastBundle>* bundle);

/// Deep-copies a bundle by round-tripping it through the codec — the same
/// bytes a save/load pair would produce, so the clone is exactly as
/// equivalent to the original as a deployed bundle is to its training-run
/// artifact (pinned by the serialize round-trip tests). This is how
/// ForecastFleet stamps one loaded bundle onto N shard replicas, and how
/// tests hand the same model to a fleet and a reference service without
/// sharing mutable state.
std::unique_ptr<ForecastBundle> CloneBundle(const ForecastBundle& bundle);

}  // namespace hotspot::serialize

#endif  // HOTSPOT_SERIALIZE_BUNDLE_H_
