#include "serialize/bundle.h"

#include <utility>

#include "util/logging.h"

namespace hotspot::serialize {

namespace {

bool IsClassifierKind(ModelKind model) {
  switch (model) {
    case ModelKind::kTree:
    case ModelKind::kRfRaw:
    case ModelKind::kRfF1:
    case ModelKind::kRfF2:
    case ModelKind::kGbdt:
      return true;
    default:
      return false;
  }
}

/// The bundle payload is a table of self-describing sections
/// (id, version, size, bytes). Each section versions independently of the
/// container, so a future layout change to, say, the fingerprints bumps
/// one section version and the loader can name exactly which section it
/// cannot read.
enum BundleSection : uint32_t {
  kScoreSection = 1,
  kNormalizationSection = 2,
  kClassifierSection = 3,
  kFingerprintsSection = 4,
  kFlatForestSection = 5,
  kLineageSection = 6,
};

const char* SectionName(uint32_t id) {
  switch (id) {
    case kScoreSection:
      return "score_config";
    case kNormalizationSection:
      return "normalization";
    case kClassifierSection:
      return "classifier";
    case kFingerprintsSection:
      return "fingerprints";
    case kFlatForestSection:
      return "flat_forest";
    case kLineageSection:
      return "lineage";
  }
  return "unknown";
}

/// Newest version of each section this binary reads and writes. It is
/// also the only version read: flat_forest v1 carried the quantized
/// variant's arrays, which v2 dropped.
uint32_t SupportedSectionVersion(uint32_t id) {
  switch (id) {
    case kScoreSection:
    case kNormalizationSection:
    case kClassifierSection:
    case kFingerprintsSection:
    case kLineageSection:
      return 1;
    case kFlatForestSection:
      return 2;
  }
  return 0;  // unknown section id
}

void WriteSection(uint32_t id, const ByteWriter& body, ByteWriter* writer) {
  writer->WriteU32(id);
  writer->WriteU32(SupportedSectionVersion(id));
  writer->WriteU64(body.bytes().size());
  writer->WriteRaw(body.bytes().data(), body.bytes().size());
}

void EncodeClassifier(const ForecastBundle& bundle, ByteWriter* writer) {
  // The classifier's concrete type is pinned by the model kind (the same
  // mapping Forecaster::Run uses), so the downcasts are exact.
  switch (bundle.model) {
    case ModelKind::kTree:
      ModelAccess::EncodeTree(
          static_cast<const ml::DecisionTree&>(*bundle.classifier), writer);
      break;
    case ModelKind::kRfRaw:
    case ModelKind::kRfF1:
    case ModelKind::kRfF2:
      ModelAccess::EncodeForest(
          static_cast<const ml::RandomForest&>(*bundle.classifier), writer);
      break;
    case ModelKind::kGbdt:
      ModelAccess::EncodeGbdt(
          static_cast<const ml::Gbdt&>(*bundle.classifier), writer);
      break;
    default:
      HOTSPOT_CHECK(false);
  }
}

bool DecodeClassifier(ByteReader* reader, ForecastBundle* bundle) {
  switch (bundle->model) {
    case ModelKind::kTree:
      bundle->classifier = ModelAccess::DecodeTree(reader);
      break;
    case ModelKind::kRfRaw:
    case ModelKind::kRfF1:
    case ModelKind::kRfF2:
      bundle->classifier = ModelAccess::DecodeForest(reader);
      break;
    case ModelKind::kGbdt:
      bundle->classifier = ModelAccess::DecodeGbdt(reader);
      break;
    default:
      reader->Fail("bundle model kind is not a servable classifier");
      return false;
  }
  return bundle->classifier != nullptr;
}

void EncodeLineage(const BundleLineage& lineage, ByteWriter* writer) {
  writer->WriteU64(lineage.parent_generation);
  writer->WriteU32(lineage.retrain_index);
  writer->WriteI32(lineage.trained_end_day);
  writer->WriteString(lineage.source);
}

bool DecodeLineage(ByteReader* reader, BundleLineage* lineage) {
  lineage->parent_generation = reader->ReadU64();
  lineage->retrain_index = reader->ReadU32();
  lineage->trained_end_day = reader->ReadI32();
  lineage->source = reader->ReadString();
  return reader->ok();
}

/// Decodes the fixed header fields that precede the section table.
bool DecodeHeader(ByteReader* reader, ForecastBundle* bundle) {
  uint32_t model = reader->ReadU32();
  bundle->window_days = reader->ReadI32();
  bundle->horizon_days = reader->ReadI32();
  bundle->num_channels = reader->ReadI32();
  bundle->feature_dim = reader->ReadI32();
  if (!reader->ok()) return false;
  bundle->model = static_cast<ModelKind>(model);
  if (model > static_cast<uint32_t>(ModelKind::kGbdt) ||
      !IsClassifierKind(bundle->model)) {
    reader->Fail("bundle model kind is not a servable classifier");
    return false;
  }
  if (bundle->window_days <= 0 || bundle->horizon_days <= 0 ||
      bundle->num_channels <= 0 || bundle->feature_dim <= 0) {
    reader->Fail("bundle window spec out of range");
    return false;
  }
  return true;
}

bool DecodeSectioned(ByteReader* reader, ForecastBundle* bundle) {
  uint32_t section_count = reader->ReadU32();
  if (!reader->ok()) return false;
  if (section_count > 64) {
    reader->Fail("bundle section count out of range");
    return false;
  }
  bool seen[kLineageSection + 1] = {};
  for (uint32_t s = 0; s < section_count; ++s) {
    uint32_t id = reader->ReadU32();
    uint32_t version = reader->ReadU32();
    uint64_t size = reader->ReadU64();
    if (!reader->ok()) return false;
    uint32_t supported = SupportedSectionVersion(id);
    if (supported == 0) {
      reader->Fail("bundle section id " + std::to_string(id) +
                   " is not known to this binary");
      return false;
    }
    if (version > supported) {
      reader->Fail("bundle '" + std::string(SectionName(id)) +
                   "' section version " + std::to_string(version) +
                   " is newer than this binary supports (" +
                   std::to_string(supported) + ")");
      return false;
    }
    if (version < supported) {
      reader->Fail("bundle '" + std::string(SectionName(id)) +
                   "' section version " + std::to_string(version) +
                   " is no longer supported (this binary reads version " +
                   std::to_string(supported) + ")");
      return false;
    }
    if (seen[id]) {
      reader->Fail("bundle '" + std::string(SectionName(id)) +
                   "' section appears twice");
      return false;
    }
    seen[id] = true;
    if (size > reader->remaining()) {
      reader->Fail("bundle '" + std::string(SectionName(id)) +
                   "' section size exceeds payload");
      return false;
    }
    size_t before = reader->remaining();
    switch (id) {
      case kScoreSection:
        if (!DecodeScoreConfig(reader, &bundle->score)) return false;
        break;
      case kNormalizationSection:
        if (!DecodeNormalization(reader, &bundle->normalization)) {
          return false;
        }
        break;
      case kClassifierSection:
        if (!DecodeClassifier(reader, bundle)) return false;
        break;
      case kFingerprintsSection: {
        auto fingerprints =
            std::make_unique<monitor::BundleFingerprints>();
        if (!monitor::DecodeFingerprints(reader, fingerprints.get())) {
          return false;
        }
        bundle->fingerprints = std::move(fingerprints);
        break;
      }
      case kFlatForestSection: {
        // Decoded through a sub-reader bounded to exactly this section's
        // body: a corrupt flat section can neither read into a
        // neighbouring section nor fail with an unattributed
        // end-of-payload error — every truncation, byte flip, or bad
        // child offset surfaces as a 'flat_forest' error.
        ByteReader section(reader->Cursor(), static_cast<size_t>(size));
        bundle->flat = ModelAccess::DecodeFlatForest(&section);
        if (bundle->flat == nullptr || !section.ok()) {
          reader->Fail("bundle 'flat_forest' section is malformed: " +
                       (section.error().empty() ? "unreadable"
                                                : section.error()));
          return false;
        }
        if (!section.AtEnd()) {
          reader->Fail(
              "bundle 'flat_forest' section has trailing bytes after its "
              "contents");
          return false;
        }
        reader->Skip(size);
        break;
      }
      case kLineageSection: {
        auto lineage = std::make_unique<BundleLineage>();
        if (!DecodeLineage(reader, lineage.get())) return false;
        bundle->lineage = std::move(lineage);
        break;
      }
    }
    if (before - reader->remaining() != size) {
      reader->Fail("bundle '" + std::string(SectionName(id)) +
                   "' section size does not match its contents");
      return false;
    }
  }
  for (uint32_t id :
       {kScoreSection, kNormalizationSection, kClassifierSection}) {
    if (!seen[id]) {
      reader->Fail("bundle is missing its required '" +
                   std::string(SectionName(id)) + "' section");
      return false;
    }
  }
  if (bundle->flat != nullptr) {
    // The flat forest is a derived artifact: a stored section must be
    // byte-identical to a fresh compile of the classifier it shipped with
    // (Encode∘Compile is a pure function of the model, pinned by the
    // property tests). This makes every flat-section corruption that
    // survives the structural checks — e.g. a flipped leaf value —
    // detectable, and guarantees the flat engine cannot diverge from the
    // pointer-walking model it stands in for.
    ByteWriter stored;
    ModelAccess::EncodeFlatForest(*bundle->flat, &stored);
    ByteWriter rebuilt;
    ModelAccess::EncodeFlatForest(ml::FlatForest::Compile(*bundle->classifier),
                                  &rebuilt);
    if (stored.bytes() != rebuilt.bytes()) {
      reader->Fail(
          "bundle 'flat_forest' section does not match its classifier");
      return false;
    }
  }
  return true;
}

}  // namespace

void EncodeBundle(const ForecastBundle& bundle, ByteWriter* writer) {
  HOTSPOT_CHECK(IsClassifierKind(bundle.model))
      << "only classifier models can be bundled";
  HOTSPOT_CHECK(bundle.classifier != nullptr);
  writer->WriteU32(static_cast<uint32_t>(bundle.model));
  writer->WriteI32(bundle.window_days);
  writer->WriteI32(bundle.horizon_days);
  writer->WriteI32(bundle.num_channels);
  writer->WriteI32(bundle.feature_dim);

  writer->WriteU32(3u + (bundle.fingerprints != nullptr ? 1u : 0u) +
                   (bundle.flat != nullptr ? 1u : 0u) +
                   (bundle.lineage != nullptr ? 1u : 0u));
  ByteWriter score;
  EncodeScoreConfig(bundle.score, &score);
  WriteSection(kScoreSection, score, writer);
  ByteWriter normalization;
  EncodeNormalization(bundle.normalization, &normalization);
  WriteSection(kNormalizationSection, normalization, writer);
  ByteWriter classifier;
  EncodeClassifier(bundle, &classifier);
  WriteSection(kClassifierSection, classifier, writer);
  if (bundle.fingerprints != nullptr) {
    ByteWriter fingerprints;
    monitor::EncodeFingerprints(*bundle.fingerprints, &fingerprints);
    WriteSection(kFingerprintsSection, fingerprints, writer);
  }
  if (bundle.flat != nullptr) {
    ByteWriter flat;
    ModelAccess::EncodeFlatForest(*bundle.flat, &flat);
    WriteSection(kFlatForestSection, flat, writer);
  }
  if (bundle.lineage != nullptr) {
    ByteWriter lineage;
    EncodeLineage(*bundle.lineage, &lineage);
    WriteSection(kLineageSection, lineage, writer);
  }
}

std::unique_ptr<ForecastBundle> DecodeBundle(ByteReader* reader) {
  auto bundle = std::make_unique<ForecastBundle>();
  if (!DecodeHeader(reader, bundle.get())) return nullptr;
  if (!DecodeSectioned(reader, bundle.get())) return nullptr;
  if (!reader->ok()) return nullptr;
  return bundle;
}

std::unique_ptr<ForecastBundle> CloneBundle(const ForecastBundle& bundle) {
  ByteWriter writer;
  EncodeBundle(bundle, &writer);
  ByteReader reader(writer.bytes().data(), writer.bytes().size());
  std::unique_ptr<ForecastBundle> clone = DecodeBundle(&reader);
  HOTSPOT_CHECK(clone != nullptr && reader.ok() && reader.AtEnd())
      << "bundle failed to round-trip through its own codec: "
      << reader.error();
  return clone;
}

Status SaveBundle(const std::string& path, const ForecastBundle& bundle) {
  ByteWriter writer;
  EncodeBundle(bundle, &writer);
  return WriteArtifactFile(path, ArtifactKind::kForecastBundle,
                           writer.bytes());
}

Status LoadBundle(const std::string& path,
                  std::unique_ptr<ForecastBundle>* bundle) {
  HOTSPOT_CHECK(bundle != nullptr);
  std::vector<uint8_t> payload;
  Status status =
      ReadArtifactFile(path, ArtifactKind::kForecastBundle, &payload);
  if (!status.ok) return status;
  ByteReader reader(payload.data(), payload.size());
  std::unique_ptr<ForecastBundle> loaded = DecodeBundle(&reader);
  if (loaded == nullptr || !reader.ok()) {
    std::string what =
        reader.error().empty() ? "malformed payload" : reader.error();
    return Status::Error(path + ": " + what);
  }
  if (!reader.AtEnd()) {
    return Status::Error(path + ": trailing bytes after payload");
  }
  *bundle = std::move(loaded);
  return Status::Ok();
}

}  // namespace hotspot::serialize
