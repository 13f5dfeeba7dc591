#ifndef HOTSPOT_SERIALIZE_MODEL_IO_H_
#define HOTSPOT_SERIALIZE_MODEL_IO_H_

#include <memory>

#include "core/config.h"
#include "ml/decision_tree.h"
#include "ml/gbdt.h"
#include "ml/random_forest.h"
#include "serialize/binary_format.h"

namespace hotspot::serialize {

/// The friend-of-the-models gateway: all knowledge of private model state
/// lives here, payload layout knowledge lives here, and the model classes
/// only grant friendship. Encode appends one classifier's payload (the
/// bundle's 'classifier' section) to the writer; Decode reconstructs it,
/// returning null (with the reason in reader->error()) on any structural
/// or semantic violation. A decoded model is always one
/// ml::FlatForest::Compile can build: at least one tree, at least one node
/// per tree, features within dimensionality, and node graphs that are
/// trees — children in range and strictly forward-pointing, no node the
/// child of two parents — so compiling visits each node once and a loaded
/// model can never loop or index out of bounds at prediction time.
struct ModelAccess {
  static void EncodeGbdt(const ml::Gbdt& model, ByteWriter* writer);
  static std::unique_ptr<ml::Gbdt> DecodeGbdt(ByteReader* reader);

  static void EncodeTree(const ml::DecisionTree& model, ByteWriter* writer);
  static std::unique_ptr<ml::DecisionTree> DecodeTree(ByteReader* reader);

  static void EncodeForest(const ml::RandomForest& model,
                           ByteWriter* writer);
  static std::unique_ptr<ml::RandomForest> DecodeForest(ByteReader* reader);
};

/// ScoreConfig payload codec (no private state).
void EncodeScoreConfig(const ScoreConfig& config, ByteWriter* writer);
bool DecodeScoreConfig(ByteReader* reader, ScoreConfig* config);

}  // namespace hotspot::serialize

#endif  // HOTSPOT_SERIALIZE_MODEL_IO_H_
