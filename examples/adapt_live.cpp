// The closed loop, live: drift-triggered continual learning with shadow
// deployment and champion/challenger promotion.
//
//   1. Train a GBDT hot-spot forecaster on a control study — the
//      champion, packed into a ForecastBundle as the deployable artifact.
//   2. Build a *shifted* study: same topology and seed, but the latent
//      load process reassigned so a different subset of sectors is now
//      chronically overloaded. The champion's training distribution no
//      longer matches the world it will serve.
//   3. Stand up the monitored serving path — ForecastService behind a
//      ServingPipeline — with an adapt::AdaptationController's three
//      taps attached: the shadow predict tee, the champion-score tee and
//      the matured-label tee.
//   4. Stream the shifted KPI tensor hour-major, polling the controller
//      at every day close. The monitor confirms drift; at the next day
//      close the matured-label tee cuts the newest days out of the
//      serving engine's own history, and the next Poll() retrains a
//      challenger on them (warm start, the champion's score config
//      carried over). Later polls score the live traffic the predict tee
//      copied with the challenger in shadow, compare on matured labels
//      with bootstrap CIs, and promote the winner through the service's
//      RCU PromoteBundle path — serving never pauses. A guard window then
//      watches the promotion with the archived champion still shadowing;
//      a regression would roll the swap back automatically.
//   5. Audit: the AdaptReport, the per-generation served-row split, the
//      promoted bundle's lineage record, and the flight recorder's
//      kAdaptTransition chain — every ladder edge, in order.
//
// Until the promotion lands, champion predictions are bitwise-identical
// to a controller-free run (the taps are pure observers); the unit suite
// pins that, this example demonstrates the loop end to end. The
// narration is timing-dependent: retraining and shadow scoring run inside
// Poll() on this thread, but the pipeline's worker (and its taps) runs
// asynchronously to the day-close Poll, so the exact day each ladder
// transition lands (and with it the per-generation batch split and the
// verdict's sample) varies run to run — the closing invariants checked
// below do not.
//
// Build: cmake -B build -G Ninja && cmake --build build
// Run:   ./build/examples/example_adapt_live
#include <cstdio>

#include "hotspot.h"

int main() {
  using namespace hotspot;

  // 1. The champion's training era: the unmodified network.
  simnet::GeneratorConfig generator;
  generator.topology.target_sectors = 48;
  generator.topology.num_cities = 1;
  generator.weeks = 9;
  generator.seed = 20260808;
  Study control = BuildStudy(StudyInput(generator), StudyOptions{});

  ForecastConfig config;
  config.model = ModelKind::kGbdt;
  config.t = 55;
  config.h = 1;
  config.w = 3;
  config.training_days = 10;
  config.seed = 17;
  config.gbdt.num_iterations = 10;
  config.gbdt.num_leaves = 15;
  config.gbdt.max_bins = 32;
  Forecaster forecaster = control.MakeForecaster(TargetKind::kBeHotSpot);
  std::unique_ptr<serialize::ForecastBundle> champion =
      forecaster.TrainBundle(config);
  champion->score = control.score_config;
  std::printf("champion trained on the control era (generation 0)\n");

  // 2. The serving era: the load process moved — 60%% of sectors now run
  // chronically hot. KPI marginals and hot-spot labels both shift away
  // from what the champion saw.
  simnet::GeneratorConfig shifted_generator = generator;
  shifted_generator.load.chronic_fraction = 0.6;
  shifted_generator.load.chronic_min = 1.5;
  shifted_generator.load.chronic_max = 2.5;
  Study shifted = BuildStudy(StudyInput(shifted_generator), StudyOptions{});

  // 3. Monitored serving with the controller's taps on the pipeline.
  obs::PipelineContext context;
  obs::PipelineContext::ScopedInstall install(&context);

  ForecastService service(std::move(champion));

  adapt::AdaptOptions options;
  options.train = config;
  options.policy.trigger = monitor::AlertState::kDrift;
  options.policy.training_days = 10;
  options.policy.min_shadow_days = 3;
  options.policy.min_compared_rows = 96;
  options.policy.max_shadow_days = 14;
  options.policy.guard_days = 3;
  options.policy.rollback_lift_margin = 0.25;
  options.policy.cooldown_days = 30;
  adapt::AdaptationController controller(&service, options);

  std::vector<StreamingPrediction> served;
  {
    pipeline::ServingPipeline::Options serve_options;
    serve_options.num_sectors = shifted.num_sectors();
    serve_options.num_kpis = shifted.network.num_kpis();
    serve_options.calendar = &shifted.network.calendar_matrix;
    serve_options.score = shifted.score_config;
    serve_options.history_weeks = shifted.num_weeks() + 1;
    controller.AttachTaps(&serve_options);  // before the pipeline exists
    pipeline::ServingPipeline serving(&service, serve_options);

    // 4. Stream hour-major; poll the ladder at every day close and
    // narrate each state change. The Poll() that retrains holds the feed
    // until the challenger is built, so the shadow episode spans whole
    // stream days (a live deployment would poll from another thread).
    const Tensor3<float>& kpis = shifted.network.kpis;
    adapt::AdaptState previous = adapt::AdaptState::kIdle;
    for (int hour = 0; hour < kpis.dim1(); ++hour) {
      for (int sector = 0; sector < kpis.dim0(); ++sector) {
        if (!serving.Push(sector, hour, kpis.Slice(sector, hour),
                          kpis.dim2())) {
          std::fprintf(stderr, "push refused at hour %d\n", hour);
          return 1;
        }
      }
      if ((hour + 1) % kHoursPerDay != 0) continue;
      const adapt::AdaptState state = controller.Poll();
      if (state != previous) {
        std::printf("day %d: %s -> %s\n", (hour + 1) / kHoursPerDay - 1,
                    adapt::AdaptStateName(previous),
                    adapt::AdaptStateName(state));
        previous = state;
      }
    }
    serving.Finish();
    served = serving.TakePredictions();
  }

  // 5. The audit trail.
  adapt::AdaptReport report = controller.Report();
  std::printf(
      "report: state=%s champion_generation=%llu retrains=%u "
      "promotions=%u rollbacks=%u rejections=%u\n",
      adapt::AdaptStateName(report.state),
      static_cast<unsigned long long>(report.champion_generation),
      report.retrains, report.promotions, report.rollbacks,
      report.rejections);

  uint64_t champion_batches = 0, challenger_batches = 0;
  for (const StreamingPrediction& prediction : served) {
    (prediction.generation == 0 ? champion_batches : challenger_batches) += 1;
  }
  std::printf("served %zu batches: %llu by the champion, %llu by the "
              "promoted challenger\n",
              served.size(),
              static_cast<unsigned long long>(champion_batches),
              static_cast<unsigned long long>(challenger_batches));

  std::shared_ptr<const serialize::ForecastBundle> promoted =
      service.bundle_snapshot();
  if (promoted->lineage != nullptr) {
    std::printf("lineage: source=%s parent_generation=%llu "
                "trained_end_day=%d\n",
                promoted->lineage->source.c_str(),
                static_cast<unsigned long long>(
                    promoted->lineage->parent_generation),
                promoted->lineage->trained_end_day);
  }

  for (const obs::FlightEventRecord& event : context.flight().Snapshot()) {
    if (event.kind != obs::FlightEventKind::kAdaptTransition) continue;
    std::printf("flight: %s -> %s (generation %lld, lift delta %+0.4f)\n",
                adapt::AdaptStateName(static_cast<adapt::AdaptState>(event.a)),
                adapt::AdaptStateName(static_cast<adapt::AdaptState>(event.b)),
                static_cast<long long>(event.c), event.d);
  }

  // The loop must actually have closed: drift seen, challenger promoted,
  // challenger rows served, no rollback.
  if (report.promotions != 1 || report.rollbacks != 0 ||
      challenger_batches == 0 ||
      report.champion_generation != 1) {
    std::fprintf(stderr, "the loop did not close cleanly\n");
    return 1;
  }
  std::printf("drift detected, challenger retrained from the serving "
              "engine's own history, shadow-validated, promoted, guard "
              "window passed — the loop closed\n");
  return 0;
}
