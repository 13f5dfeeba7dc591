#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "gtest/gtest.h"
#include "io/csv_io.h"
#include "simnet/topology.h"
#include "util/rng.h"

namespace hotspot::io {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("hotspot_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST(ParseCsvLine, PlainFields) {
  EXPECT_EQ(ParseCsvLine("a,b,c"),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(ParseCsvLine(""), (std::vector<std::string>{""}));
  EXPECT_EQ(ParseCsvLine("a,,c"),
            (std::vector<std::string>{"a", "", "c"}));
}

TEST(ParseCsvLine, QuotedFields) {
  EXPECT_EQ(ParseCsvLine("\"a,b\",c"),
            (std::vector<std::string>{"a,b", "c"}));
  EXPECT_EQ(ParseCsvLine("\"say \"\"hi\"\"\""),
            (std::vector<std::string>{"say \"hi\""}));
}

TEST(ParseCsvLine, StripsCarriageReturn) {
  EXPECT_EQ(ParseCsvLine("a,b\r"),
            (std::vector<std::string>{"a", "b"}));
}

TEST(ParseCsvLine, CustomSeparator) {
  EXPECT_EQ(ParseCsvLine("a;b", ';'),
            (std::vector<std::string>{"a", "b"}));
}

TEST_F(IoTest, MatrixRoundTrip) {
  Matrix<float> matrix(3, 4);
  Rng rng(1);
  for (float& v : matrix.data()) {
    v = static_cast<float>(rng.Gaussian());
  }
  matrix(1, 2) = MissingValue();

  ASSERT_TRUE(WriteMatrixCsv(Path("m.csv"), matrix).ok);
  Matrix<float> loaded;
  IoStatus status = ReadMatrixCsv(Path("m.csv"), &loaded);
  ASSERT_TRUE(status.ok) << status.error;
  ASSERT_EQ(loaded.rows(), 3);
  ASSERT_EQ(loaded.cols(), 4);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 4; ++j) {
      if (IsMissing(matrix(i, j))) {
        EXPECT_TRUE(IsMissing(loaded(i, j)));
      } else {
        EXPECT_NEAR(loaded(i, j), matrix(i, j), 1e-6);
      }
    }
  }
}

TEST_F(IoTest, MatrixReadRejectsBadHeader) {
  std::ofstream(Path("bad.csv")) << "nope,t0\n0,1\n";
  Matrix<float> loaded;
  IoStatus status = ReadMatrixCsv(Path("bad.csv"), &loaded);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.error.find("header"), std::string::npos);
}

TEST_F(IoTest, MatrixReadRejectsBadNumber) {
  std::ofstream(Path("bad.csv")) << "sector,t0\n0,abc\n";
  Matrix<float> loaded;
  IoStatus status = ReadMatrixCsv(Path("bad.csv"), &loaded);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.error.find("bad number"), std::string::npos);
}

TEST_F(IoTest, MatrixReadRejectsRaggedRows) {
  std::ofstream(Path("bad.csv")) << "sector,t0,t1\n0,1\n";
  Matrix<float> loaded;
  EXPECT_FALSE(ReadMatrixCsv(Path("bad.csv"), &loaded).ok);
}

TEST_F(IoTest, MissingFileReported) {
  Matrix<float> loaded;
  IoStatus status = ReadMatrixCsv(Path("nonexistent.csv"), &loaded);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.error.find("cannot open"), std::string::npos);
}

TEST_F(IoTest, KpiTensorRoundTrip) {
  Tensor3<float> kpis(2, 3, 2);
  Rng rng(2);
  for (float& v : kpis.data()) v = static_cast<float>(rng.Gaussian());
  kpis(0, 1, 1) = MissingValue();

  ASSERT_TRUE(
      WriteKpiTensorCsv(Path("k.csv"), kpis, {"noise", "drops"}).ok);
  Tensor3<float> loaded;
  std::vector<std::string> names;
  IoStatus status = ReadKpiTensorCsv(Path("k.csv"), &loaded, &names);
  ASSERT_TRUE(status.ok) << status.error;
  EXPECT_EQ(names, (std::vector<std::string>{"noise", "drops"}));
  ASSERT_EQ(loaded.dim0(), 2);
  ASSERT_EQ(loaded.dim1(), 3);
  ASSERT_EQ(loaded.dim2(), 2);
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) {
      for (int k = 0; k < 2; ++k) {
        if (IsMissing(kpis(i, j, k))) {
          EXPECT_TRUE(IsMissing(loaded(i, j, k)));
        } else {
          EXPECT_NEAR(loaded(i, j, k), kpis(i, j, k), 1e-6);
        }
      }
    }
  }
}

TEST_F(IoTest, MatrixErrorNamesLineAndColumn) {
  std::ofstream(Path("bad.csv")) << "sector,t0,t1\n0,1,2\n1,1,oops\n";
  Matrix<float> loaded;
  IoStatus status = ReadMatrixCsv(Path("bad.csv"), &loaded);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find(":3:"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("'oops'"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("'t1'"), std::string::npos) << status.error;
}

TEST_F(IoTest, MatrixRaggedRowErrorCountsFields) {
  std::ofstream(Path("bad.csv")) << "sector,t0,t1\n0,1\n";
  Matrix<float> loaded;
  IoStatus status = ReadMatrixCsv(Path("bad.csv"), &loaded);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("expected 3 fields, got 2"),
            std::string::npos)
      << status.error;
}

TEST_F(IoTest, KpiTensorRejectsSparseCoverage) {
  std::ofstream(Path("sparse.csv"))
      << "sector,hour,kpi\n0,0,1\n0,1,2\n1,0,3\n";  // (1,1) missing
  Tensor3<float> loaded;
  IoStatus status = ReadKpiTensorCsv(Path("sparse.csv"), &loaded, nullptr);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.error.find("sparse"), std::string::npos);
}

TEST_F(IoTest, KpiTensorRejectsEmptyFile) {
  std::ofstream(Path("empty.csv")) << "sector,hour,kpi\n";
  Tensor3<float> loaded;
  EXPECT_FALSE(ReadKpiTensorCsv(Path("empty.csv"), &loaded, nullptr).ok);
}

TEST_F(IoTest, KpiTensorRejectsDuplicateCellNamingBothLines) {
  // The duplicate (0,0) keeps the row count at the dense 2x2 = 4, so
  // without explicit duplicate detection the missing (1,1) cell would load
  // as a silent 0 — this must be an error naming both offending lines.
  std::ofstream(Path("dup.csv")) << "sector,hour,kpi\n"
                                 << "0,0,1\n0,1,2\n1,0,3\n0,0,9\n";
  Tensor3<float> loaded;
  IoStatus status = ReadKpiTensorCsv(Path("dup.csv"), &loaded, nullptr);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("duplicate"), std::string::npos)
      << status.error;
  EXPECT_NE(status.error.find(":5:"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("line 2"), std::string::npos) << status.error;
}

TEST_F(IoTest, KpiTensorErrorNamesValueAndKpiColumn) {
  std::ofstream(Path("bad.csv")) << "sector,hour,noise,drops\n"
                                 << "0,0,1.5,2.5\n0,1,1.5,banana\n";
  Tensor3<float> loaded;
  IoStatus status = ReadKpiTensorCsv(Path("bad.csv"), &loaded, nullptr);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find(":3:"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("'banana'"), std::string::npos)
      << status.error;
  EXPECT_NE(status.error.find("'drops'"), std::string::npos)
      << status.error;
}

TEST_F(IoTest, KpiTensorRejectsBadIds) {
  // Ids past the int range must be refused, not wrapped: 4294967297 is
  // 2^32 + 1, which a cast to int turns into 1 — a valid 2x1 tensor.
  // INT_MAX itself parses, and its grid extent must not overflow.
  const struct {
    const char* rows;
    const char* error;
  } kCases[] = {
      {"-1,0,1\n", "bad sector/hour ids '-1,0'"},
      {"0,0,1\n4294967297,0,2\n", "bad sector/hour ids '4294967297,0'"},
      {"0,0,1\n0,4294967297,2\n", "bad sector/hour ids '0,4294967297'"},
      {"0,-4294967295,1\n", "bad sector/hour ids '0,-4294967295'"},
      {"99999999999999999999,0,1\n", "bad sector/hour ids"},
      {"2147483647,0,1\n", "1 rows for a 2147483648x1 grid"},
  };
  for (const auto& c : kCases) {
    std::ofstream(Path("bad.csv")) << "sector,hour,kpi\n" << c.rows;
    Tensor3<float> loaded;
    IoStatus status = ReadKpiTensorCsv(Path("bad.csv"), &loaded, nullptr);
    ASSERT_FALSE(status.ok) << c.rows;
    EXPECT_NE(status.error.find(c.error), std::string::npos)
        << status.error;
  }
}

TEST_F(IoTest, KpiTensorFailedLoadLeavesOutputsUntouched) {
  Tensor3<float> loaded(1, 1, 1, 42.0f);
  std::vector<std::string> names = {"sentinel"};
  std::ofstream(Path("bad.csv")) << "sector,hour,kpi\n0,0,oops\n";
  ASSERT_FALSE(ReadKpiTensorCsv(Path("bad.csv"), &loaded, &names).ok);
  // Atomic failure: no partially-filled tensor, no clobbered name list.
  EXPECT_EQ(loaded(0, 0, 0), 42.0f);
  EXPECT_EQ(names, (std::vector<std::string>{"sentinel"}));
}

TEST_F(IoTest, KpiTensorRaggedRowErrorCountsFields) {
  std::ofstream(Path("bad.csv")) << "sector,hour,noise,drops\n"
                                 << "0,0,1.5,2.5,7.0\n";
  Tensor3<float> loaded;
  IoStatus status = ReadKpiTensorCsv(Path("bad.csv"), &loaded, nullptr);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("expected 4 fields, got 5"),
            std::string::npos)
      << status.error;
}

TEST_F(IoTest, StreamReaderYieldsRowsInFileOrder) {
  std::ofstream(Path("s.csv")) << "sector,hour,noise,drops\n"
                               << "0,0,1.5,2.5\n1,0,3.5,NaN\n0,1,4.5,5.5\n";
  KpiCsvStreamReader reader;
  ASSERT_TRUE(reader.Open(Path("s.csv")).ok) << reader.status().error;
  EXPECT_EQ(reader.kpi_names(),
            (std::vector<std::string>{"noise", "drops"}));
  EXPECT_EQ(reader.num_kpis(), 2);
  int sector = -1, hour = -1;
  std::vector<float> values;
  ASSERT_TRUE(reader.Next(&sector, &hour, &values));
  EXPECT_EQ(sector, 0);
  EXPECT_EQ(hour, 0);
  EXPECT_EQ(values, (std::vector<float>{1.5f, 2.5f}));
  ASSERT_TRUE(reader.Next(&sector, &hour, &values));
  EXPECT_EQ(sector, 1);
  EXPECT_TRUE(IsMissing(values[1]));
  ASSERT_TRUE(reader.Next(&sector, &hour, &values));
  EXPECT_EQ(hour, 1);
  // End of file: Next is false but the status stays OK.
  EXPECT_FALSE(reader.Next(&sector, &hour, &values));
  EXPECT_TRUE(reader.status().ok) << reader.status().error;
}

TEST_F(IoTest, StreamReaderErrorNamesFileLineAndColumn) {
  std::ofstream(Path("s.csv")) << "sector,hour,noise,drops\n"
                               << "0,0,1.5,2.5\n0,1,1.5,banana\n";
  KpiCsvStreamReader reader;
  ASSERT_TRUE(reader.Open(Path("s.csv")).ok);
  int sector, hour;
  std::vector<float> values;
  ASSERT_TRUE(reader.Next(&sector, &hour, &values));
  ASSERT_FALSE(reader.Next(&sector, &hour, &values));
  IoStatus status = reader.status();
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.error.find("s.csv:3:"), std::string::npos)
      << status.error;
  EXPECT_NE(status.error.find("'banana'"), std::string::npos)
      << status.error;
  EXPECT_NE(status.error.find("'drops'"), std::string::npos)
      << status.error;
  EXPECT_EQ(reader.line_number(), 3);
}

TEST_F(IoTest, StreamReaderRefusesIdsOutsideTheIntRange) {
  std::ofstream(Path("s.csv")) << "sector,hour,kpi\n"
                               << "0,0,1\n4294967297,0,2\n";
  KpiCsvStreamReader reader;
  ASSERT_TRUE(reader.Open(Path("s.csv")).ok);
  int sector = -1, hour = -1;
  std::vector<float> values;
  ASSERT_TRUE(reader.Next(&sector, &hour, &values));
  // Not sector 1: the row is refused.
  EXPECT_FALSE(reader.Next(&sector, &hour, &values));
  EXPECT_EQ(sector, 0);
  EXPECT_NE(reader.status().error.find("bad sector/hour ids"),
            std::string::npos)
      << reader.status().error;
}

TEST_F(IoTest, StreamReaderReportsMissingFile) {
  KpiCsvStreamReader reader;
  IoStatus status = reader.Open(Path("nonexistent.csv"));
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.error.find("cannot open"), std::string::npos);
}

TEST_F(IoTest, TopologyRoundTrip) {
  simnet::TopologyConfig config;
  config.target_sectors = 21;
  simnet::Topology topology = simnet::Topology::Generate(config, 9);
  ASSERT_TRUE(WriteTopologyCsv(Path("topo.csv"), topology).ok);
  simnet::Topology loaded;
  IoStatus status = ReadTopologyCsv(Path("topo.csv"), &loaded);
  ASSERT_TRUE(status.ok) << status.error;
  ASSERT_EQ(loaded.num_sectors(), 21);
  for (int i = 0; i < 21; ++i) {
    EXPECT_EQ(loaded.sector(i).tower_id, topology.sector(i).tower_id);
    EXPECT_EQ(loaded.sector(i).archetype, topology.sector(i).archetype);
    EXPECT_NEAR(loaded.sector(i).x_km, topology.sector(i).x_km, 1e-5);
  }
  // Distances survive the round trip.
  EXPECT_NEAR(loaded.DistanceKm(0, 20), topology.DistanceKm(0, 20), 1e-4);
}

TEST_F(IoTest, TopologyRejectsUnknownArchetype) {
  std::ofstream(Path("topo.csv"))
      << "sector,tower,patch,city,x_km,y_km,azimuth_deg,archetype\n"
      << "0,0,0,0,1.0,2.0,0.0,castle\n";
  simnet::Topology loaded;
  IoStatus status = ReadTopologyCsv(Path("topo.csv"), &loaded);
  EXPECT_FALSE(status.ok);
  EXPECT_NE(status.error.find("archetype"), std::string::npos);
}

TEST_F(IoTest, TopologyErrorNamesValueAndColumn) {
  std::ofstream(Path("topo.csv"))
      << "sector,tower,patch,city,x_km,y_km,azimuth_deg,archetype\n"
      << "0,0,0,0,1.0,north,0.0,residential\n";
  simnet::Topology loaded;
  IoStatus status = ReadTopologyCsv(Path("topo.csv"), &loaded);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find(":2:"), std::string::npos) << status.error;
  EXPECT_NE(status.error.find("'north'"), std::string::npos)
      << status.error;
  EXPECT_NE(status.error.find("'y_km'"), std::string::npos) << status.error;
}

TEST_F(IoTest, TopologyRejectsIdsOutsideTheIntRange) {
  // 4294967296 is 2^32: cast to int it would alias the dense id 0.
  std::ofstream(Path("topo.csv"))
      << "sector,tower,patch,city,x_km,y_km,azimuth_deg,archetype\n"
      << "4294967296,0,0,0,1.0,2.0,0.0,residential\n";
  simnet::Topology loaded;
  IoStatus status = ReadTopologyCsv(Path("topo.csv"), &loaded);
  ASSERT_FALSE(status.ok);
  EXPECT_NE(status.error.find("'4294967296' in column 'sector'"),
            std::string::npos)
      << status.error;
}

TEST_F(IoTest, TopologyRejectsNonDenseIds) {
  std::ofstream(Path("topo.csv"))
      << "sector,tower,patch,city,x_km,y_km,azimuth_deg,archetype\n"
      << "5,0,0,0,1.0,2.0,0.0,residential\n";
  simnet::Topology loaded;
  EXPECT_FALSE(ReadTopologyCsv(Path("topo.csv"), &loaded).ok);
}

}  // namespace
}  // namespace hotspot::io
