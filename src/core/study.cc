#include "core/study.h"

#include <cmath>
#include <utility>

#include "core/labels.h"
#include "core/sector_filter.h"
#include "obs/pipeline_context.h"
#include "util/logging.h"

namespace hotspot {

simnet::SyntheticNetwork StudyInput::TakeNetwork() && {
  if (has_network_) return std::move(network_);
  return simnet::GenerateNetwork(config_);
}

namespace {

Study RunPipeline(simnet::SyntheticNetwork network,
                  const StudyOptions& options) {
  obs::PipelineContext* ctx = obs::PipelineContext::Current();
  HOTSPOT_SPAN("study/build");
  Study study;

  // 1. Sector filtering (Sec. II-C).
  {
    HOTSPOT_SPAN("study/filter");
    std::vector<bool> keep = SectorFilterMask(network.kpis);
    int kept = 0;
    for (bool k : keep) {
      if (k) ++kept;
    }
    study.sectors_filtered_out = network.num_sectors() - kept;
    if (study.sectors_filtered_out > 0) {
      network.kpis = FilterSectors(network.kpis, keep);
      network.true_load = FilterRows(network.true_load, keep);
      network.true_failure = FilterRows(network.true_failure, keep);
      network.true_degradation = FilterRows(network.true_degradation, keep);
      network.true_precursor = FilterRows(network.true_precursor, keep);
      network.topology = network.topology.Filtered(keep);
      std::vector<simnet::SectorTraits> traits;
      for (size_t i = 0; i < keep.size(); ++i) {
        if (keep[i]) traits.push_back(network.traits[i]);
      }
      network.traits = std::move(traits);
      // Event lists keep original ids; ground-truth consumers should use
      // the matrices, which are filtered consistently.
    }
    if (ctx != nullptr) {
      ctx->metrics().counter("study/sectors_kept").Add(
          static_cast<uint64_t>(kept));
      ctx->metrics().counter("study/sectors_filtered_out").Add(
          static_cast<uint64_t>(study.sectors_filtered_out));
    }
  }

  // 2. Imputation.
  {
    HOTSPOT_SPAN("study/impute");
    switch (options.imputation) {
      case ImputationKind::kAutoencoder: {
        nn::KpiImputer imputer(options.imputer);
        study.imputer_report = imputer.FitAndImpute(&network.kpis);
        // The autoencoder only covers whole slices; guarantee completeness.
        nn::ImputeForwardFill(&network.kpis);
        break;
      }
      case ImputationKind::kForwardFill:
        nn::ImputeForwardFill(&network.kpis);
        break;
      case ImputationKind::kFeatureMean:
        nn::ImputeFeatureMean(&network.kpis);
        break;
      case ImputationKind::kNone:
        break;
    }
  }

  // 3. Scores and labels.
  {
    HOTSPOT_SPAN("study/scores");
    study.score_config = ScoreConfigFromCatalog(network.catalog);
    if (!std::isnan(options.hot_threshold_override)) {
      study.score_config.hot_threshold = options.hot_threshold_override;
    }
    study.scores = ComputeScores(network.kpis, study.score_config);
  }
  {
    HOTSPOT_SPAN("study/labels");
    double epsilon = study.score_config.hot_threshold;
    study.hourly_labels = HotSpotLabels(study.scores.hourly, epsilon);
    study.daily_labels = HotSpotLabels(study.scores.daily, epsilon);
    study.weekly_labels = HotSpotLabels(study.scores.weekly, epsilon);
    study.become_labels = BecomeHotSpotLabels(study.scores.daily, epsilon);
  }

  // 4. The X tensor (Eq. 5).
  {
    HOTSPOT_SPAN("study/features");
    std::vector<std::string> kpi_names;
    kpi_names.reserve(static_cast<size_t>(network.catalog.size()));
    for (const simnet::KpiSpec& spec : network.catalog.specs()) {
      kpi_names.push_back(spec.name);
    }
    study.features = features::FeatureTensor::Build(
        network.kpis, network.calendar_matrix, study.scores.hourly,
        study.scores.daily, study.scores.weekly, study.daily_labels,
        kpi_names);
  }

  study.network = std::move(network);
  if (ctx != nullptr) {
    ctx->metrics().gauge("study/num_sectors").Set(study.num_sectors());
    ctx->metrics().gauge("study/num_days").Set(study.num_days());
  }
  return study;
}

}  // namespace

Study BuildStudy(StudyInput input, const StudyOptions& options) {
  simnet::SyntheticNetwork network = std::move(input).TakeNetwork();
  return RunPipeline(std::move(network), options);
}

}  // namespace hotspot
