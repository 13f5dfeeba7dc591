// Regenerates the golden fixtures under tests/data/: a tiny fixed-seed
// GBDT ForecastBundle plus the hex-float predictions it must produce on the
// golden study, the CRC-64 digests of the golden GBDT, Tree and
// RandomForest fit shapes, and those of the golden network shapes'
// networks and studies. Run after any
// intentional change to the binary format, to the training pipeline's
// numerics or to the generator's, then commit the refreshed files:
//
//   ./make_serialize_golden [output_dir]   (default: HOTSPOT_TEST_DATA_DIR)
#include <cstdio>
#include <fstream>
#include <string>

#include "core/forecast_service.h"
#include "serialize/bundle.h"
#include "serialize_golden.h"

#ifndef HOTSPOT_TEST_DATA_DIR
#define HOTSPOT_TEST_DATA_DIR "."
#endif

int main(int argc, char** argv) {
  using namespace hotspot;
  std::string dir = argc > 1 ? argv[1] : HOTSPOT_TEST_DATA_DIR;

  Study study = testing::BuildGoldenStudy();
  std::unique_ptr<serialize::ForecastBundle> bundle =
      testing::BuildGoldenBundle(study);

  std::string bundle_path = dir + "/" + testing::kGoldenBundleFile;
  serialize::Status status = serialize::SaveBundle(bundle_path, *bundle);
  if (!status.ok) {
    std::fprintf(stderr, "save failed: %s\n", status.error.c_str());
    return 1;
  }

  ForecastService service(std::move(bundle));
  std::vector<float> predictions =
      service.PredictAtDay(study.features, testing::GoldenForecastConfig().t);
  std::string predictions_path =
      dir + "/" + testing::kGoldenPredictionsFile;
  if (!testing::WriteGoldenPredictions(predictions_path, predictions)) {
    std::fprintf(stderr, "cannot write %s\n", predictions_path.c_str());
    return 1;
  }

  std::printf("wrote %s and %s (%zu predictions)\n", bundle_path.c_str(),
              predictions_path.c_str(), predictions.size());

  std::string fits_path = dir + "/" + testing::kGoldenGbdtFitsFile;
  std::ofstream fits(fits_path);
  for (const testing::GbdtFitShape& shape : testing::GoldenGbdtFitShapes()) {
    fits << testing::GbdtFitDigestLine(shape) << "\n";
  }
  fits.flush();
  if (!fits) {
    std::fprintf(stderr, "cannot write %s\n", fits_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", fits_path.c_str());

  std::string tree_fits_path = dir + "/" + testing::kGoldenTreeFitsFile;
  std::ofstream tree_fits(tree_fits_path);
  for (const testing::TreeFitShape& shape : testing::GoldenTreeFitShapes()) {
    tree_fits << testing::TreeFitDigestLine(shape) << "\n";
  }
  tree_fits.flush();
  if (!tree_fits) {
    std::fprintf(stderr, "cannot write %s\n", tree_fits_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", tree_fits_path.c_str());

  std::string networks_path = dir + "/" + testing::kGoldenNetworksFile;
  std::ofstream networks(networks_path);
  for (const testing::NetworkShape& shape : testing::GoldenNetworkShapes()) {
    networks << testing::NetworkDigestLine(shape) << "\n";
  }
  networks.flush();
  if (!networks) {
    std::fprintf(stderr, "cannot write %s\n", networks_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", networks_path.c_str());
  return 0;
}
