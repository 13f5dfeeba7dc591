#ifndef HOTSPOT_SERIALIZE_MODEL_IO_H_
#define HOTSPOT_SERIALIZE_MODEL_IO_H_

#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "ml/decision_tree.h"
#include "ml/flat_tree.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "nn/imputer.h"
#include "serialize/binary_format.h"

namespace hotspot::serialize {

/// Per-study KPI normalization statistics (one mean/std per KPI channel) —
/// the preprocessing state a served model needs to normalize incoming raw
/// KPI windows the way the training study did.
struct NormalizationStats {
  std::vector<double> means;
  std::vector<double> stds;

  bool operator==(const NormalizationStats&) const = default;
};

/// Computes the stats from a (possibly missing-valued) KPI tensor.
NormalizationStats NormalizationFromKpis(const Tensor3<float>& kpis);

/// The friend-of-the-models gateway: all knowledge of private model state
/// lives here, payload layout knowledge lives here, and the model classes
/// only grant friendship. Encode appends one artifact's payload to the
/// writer; Decode reconstructs it, returning null (with the reason in
/// reader->error()) on any structural or semantic violation — decoded
/// trees are validated (node indices in range, strictly forward-pointing,
/// features within dimensionality) so a loaded model can never loop or
/// index out of bounds at prediction time.
struct ModelAccess {
  static void EncodeGbdt(const ml::Gbdt& model, ByteWriter* writer);
  static std::unique_ptr<ml::Gbdt> DecodeGbdt(ByteReader* reader);

  static void EncodeTree(const ml::DecisionTree& model, ByteWriter* writer);
  static std::unique_ptr<ml::DecisionTree> DecodeTree(ByteReader* reader);

  static void EncodeForest(const ml::RandomForest& model,
                           ByteWriter* writer);
  static std::unique_ptr<ml::RandomForest> DecodeForest(ByteReader* reader);

  static void EncodeImputer(const nn::KpiImputer& imputer,
                            ByteWriter* writer);
  static std::unique_ptr<nn::KpiImputer> DecodeImputer(ByteReader* reader);

  /// FlatForest payload codec (the bundle's 'flat_forest' section). Decode
  /// re-validates the node graph (features in range, children strictly
  /// forward-pointing, roots valid) so a loaded flat forest can never loop
  /// or index out of bounds. Encode(Compile(model)) is a pure function of the
  /// model, which is what lets the bundle loader byte-compare a stored
  /// flat section against a recompile of the classifier it rode in with.
  static void EncodeFlatForest(const ml::FlatForest& forest,
                               ByteWriter* writer);
  static std::unique_ptr<ml::FlatForest> DecodeFlatForest(
      ByteReader* reader);
};

/// ScoreConfig / NormalizationStats payload codecs (no private state).
void EncodeScoreConfig(const ScoreConfig& config, ByteWriter* writer);
bool DecodeScoreConfig(ByteReader* reader, ScoreConfig* config);
void EncodeNormalization(const NormalizationStats& stats, ByteWriter* writer);
bool DecodeNormalization(ByteReader* reader, NormalizationStats* stats);

/// Single-artifact files: the payload codecs above framed by the versioned
/// checksummed container of binary_format.h.
Status SaveGbdt(const std::string& path, const ml::Gbdt& model);
Status LoadGbdt(const std::string& path, std::unique_ptr<ml::Gbdt>* model);

Status SaveDecisionTree(const std::string& path,
                        const ml::DecisionTree& model);
Status LoadDecisionTree(const std::string& path,
                        std::unique_ptr<ml::DecisionTree>* model);

Status SaveRandomForest(const std::string& path,
                        const ml::RandomForest& model);
Status LoadRandomForest(const std::string& path,
                        std::unique_ptr<ml::RandomForest>* model);

Status SaveImputer(const std::string& path, const nn::KpiImputer& imputer);
Status LoadImputer(const std::string& path,
                   std::unique_ptr<nn::KpiImputer>* imputer);

Status SaveScoreConfig(const std::string& path, const ScoreConfig& config);
Status LoadScoreConfig(const std::string& path, ScoreConfig* config);

Status SaveNormalization(const std::string& path,
                         const NormalizationStats& stats);
Status LoadNormalization(const std::string& path, NormalizationStats* stats);

}  // namespace hotspot::serialize

#endif  // HOTSPOT_SERIALIZE_MODEL_IO_H_
