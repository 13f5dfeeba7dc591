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
/// cannot read. Ids 2 and 5 are retired. Id 2 held per-KPI normalization
/// stats that nothing read: the feature tensor holds raw KPIs. Id 5 held
/// the compiled flat forest, a pure function of the classifier, which
/// DecodeBundle compiles instead. Bundles that still carry a v1 section 2
/// or a v2 section 5 load with it skipped.
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

/// Newest version of each section this binary reads (and, but for the
/// retired normalization and flat_forest, writes). It is also the only
/// version read: flat_forest v1 carried the quantized variant's arrays
/// and stays refused by name.
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
      case kNormalizationSection:
      case kFlatForestSection:
        // Retired sections written by older binaries: nothing serves from
        // normalization stats, and the flat forest is compiled from the
        // classifier instead (DecodeBundle).
        reader->Skip(size);
        break;
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
  for (uint32_t id : {kScoreSection, kClassifierSection}) {
    if (!seen[id]) {
      reader->Fail("bundle is missing its required '" +
                   std::string(SectionName(id)) + "' section");
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

  writer->WriteU32(2u + (bundle.fingerprints != nullptr ? 1u : 0u) +
                   (bundle.lineage != nullptr ? 1u : 0u));
  ByteWriter score;
  EncodeScoreConfig(bundle.score, &score);
  WriteSection(kScoreSection, score, writer);
  ByteWriter classifier;
  EncodeClassifier(bundle, &classifier);
  WriteSection(kClassifierSection, classifier, writer);
  if (bundle.fingerprints != nullptr) {
    ByteWriter fingerprints;
    monitor::EncodeFingerprints(*bundle.fingerprints, &fingerprints);
    WriteSection(kFingerprintsSection, fingerprints, writer);
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
  // The classifier decoders refuse every model Compile cannot build.
  bundle->flat = std::make_unique<ml::FlatForest>(
      ml::FlatForest::Compile(*bundle->classifier));
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
  return WriteArtifactFile(path, writer.bytes());
}

Status LoadBundle(const std::string& path,
                  std::unique_ptr<ForecastBundle>* bundle) {
  HOTSPOT_CHECK(bundle != nullptr);
  std::vector<uint8_t> payload;
  Status status = ReadArtifactFile(path, &payload);
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
