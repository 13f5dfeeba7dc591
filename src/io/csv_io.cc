#include "io/csv_io.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <unordered_map>

#include "util/csv.h"
#include "util/logging.h"

namespace hotspot::io {

namespace {

std::string LineError(const std::string& path, int line,
                      const std::string& what) {
  std::ostringstream message;
  message << path << ":" << line << ": " << what;
  return message.str();
}

/// Parses a float field; empty or "nan" yields NaN. Returns false on a
/// malformed number.
bool ParseFloatField(const std::string& field, float* value) {
  if (field.empty() || field == "nan" || field == "NaN") {
    *value = MissingValue();
    return true;
  }
  char* end = nullptr;
  *value = std::strtof(field.c_str(), &end);
  return end == field.c_str() + field.size();
}

/// Parses an int field. Returns false on a malformed number and on one
/// that does not fit in an int (never wraps it into range).
bool ParseIntField(const std::string& field, int* value) {
  char* end = nullptr;
  errno = 0;
  const long long parsed = std::strtoll(field.c_str(), &end, 10);
  if (end != field.c_str() + field.size() || field.empty()) return false;
  if (errno == ERANGE || parsed < std::numeric_limits<int>::min() ||
      parsed > std::numeric_limits<int>::max()) {
    return false;
  }
  *value = static_cast<int>(parsed);
  return true;
}

std::string FloatField(float value) {
  if (IsMissing(value)) return "";
  return FormatNumber(value, 9);
}

std::string FieldCountError(size_t expected, size_t got) {
  return "expected " + std::to_string(expected) + " fields, got " +
         std::to_string(got) + (got < expected ? " (truncated row?)"
                                               : " (extra columns?)");
}

}  // namespace

std::vector<std::string> ParseCsvLine(const std::string& line,
                                      char separator) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t pos = 0; pos < line.size(); ++pos) {
    char c = line[pos];
    if (in_quotes) {
      if (c == '"') {
        if (pos + 1 < line.size() && line[pos + 1] == '"') {
          current += '"';
          ++pos;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == separator) {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c != '\r') {
      current += c;
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

IoStatus WriteMatrixCsv(const std::string& path,
                        const Matrix<float>& matrix) {
  std::ofstream out(path);
  if (!out) return IoStatus::Error("cannot open " + path + " for writing");
  CsvWriter writer(&out);
  std::vector<std::string> header = {"sector"};
  for (int j = 0; j < matrix.cols(); ++j) {
    header.push_back("t" + std::to_string(j));
  }
  writer.WriteRow(header);
  for (int i = 0; i < matrix.rows(); ++i) {
    std::vector<std::string> row = {std::to_string(i)};
    for (int j = 0; j < matrix.cols(); ++j) {
      row.push_back(FloatField(matrix.At(i, j)));
    }
    writer.WriteRow(row);
  }
  out.flush();
  if (!out) return IoStatus::Error("write failed for " + path);
  return IoStatus::Ok();
}

IoStatus ReadMatrixCsv(const std::string& path, Matrix<float>* matrix) {
  HOTSPOT_CHECK(matrix != nullptr);
  std::ifstream in(path);
  if (!in) return IoStatus::Error("cannot open " + path);
  std::string line;
  if (!std::getline(in, line)) {
    return IoStatus::Error(LineError(path, 1, "missing header"));
  }
  std::vector<std::string> header = ParseCsvLine(line);
  if (header.empty() || header[0] != "sector") {
    return IoStatus::Error(LineError(path, 1, "expected 'sector' header"));
  }
  int cols = static_cast<int>(header.size()) - 1;
  std::vector<std::vector<float>> rows;
  int line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::vector<std::string> fields = ParseCsvLine(line);
    if (static_cast<int>(fields.size()) != cols + 1) {
      return IoStatus::Error(LineError(
          path, line_number,
          FieldCountError(static_cast<size_t>(cols) + 1, fields.size())));
    }
    std::vector<float> row(static_cast<size_t>(cols));
    for (int j = 0; j < cols; ++j) {
      if (!ParseFloatField(fields[static_cast<size_t>(j + 1)],
                           &row[static_cast<size_t>(j)])) {
        return IoStatus::Error(LineError(
            path, line_number,
            "bad number '" + fields[static_cast<size_t>(j + 1)] +
                "' in column '" + header[static_cast<size_t>(j + 1)] + "'"));
      }
    }
    rows.push_back(std::move(row));
  }
  *matrix = Matrix<float>(static_cast<int>(rows.size()), cols);
  for (size_t i = 0; i < rows.size(); ++i) {
    for (int j = 0; j < cols; ++j) {
      matrix->At(static_cast<int>(i), j) = rows[i][static_cast<size_t>(j)];
    }
  }
  return IoStatus::Ok();
}

IoStatus WriteKpiTensorCsv(const std::string& path,
                           const Tensor3<float>& kpis,
                           const std::vector<std::string>& kpi_names) {
  HOTSPOT_CHECK_EQ(static_cast<int>(kpi_names.size()), kpis.dim2());
  std::ofstream out(path);
  if (!out) return IoStatus::Error("cannot open " + path + " for writing");
  CsvWriter writer(&out);
  std::vector<std::string> header = {"sector", "hour"};
  for (const std::string& name : kpi_names) header.push_back(name);
  writer.WriteRow(header);
  for (int i = 0; i < kpis.dim0(); ++i) {
    for (int j = 0; j < kpis.dim1(); ++j) {
      std::vector<std::string> row = {std::to_string(i), std::to_string(j)};
      const float* slice = kpis.Slice(i, j);
      for (int k = 0; k < kpis.dim2(); ++k) {
        row.push_back(FloatField(slice[k]));
      }
      writer.WriteRow(row);
    }
  }
  out.flush();
  if (!out) return IoStatus::Error("write failed for " + path);
  return IoStatus::Ok();
}

bool ParseKpiCsvHeader(const std::string& line,
                       std::vector<std::string>* kpi_names,
                       std::string* error) {
  HOTSPOT_CHECK(kpi_names != nullptr);
  HOTSPOT_CHECK(error != nullptr);
  std::vector<std::string> header = ParseCsvLine(line);
  if (header.size() < 3 || header[0] != "sector" || header[1] != "hour") {
    *error = "expected 'sector,hour,<kpis...>' header";
    return false;
  }
  kpi_names->assign(header.begin() + 2, header.end());
  return true;
}

bool ParseKpiCsvRow(const std::vector<std::string>& fields,
                    const std::vector<std::string>& kpi_names, int* sector,
                    int* hour, std::vector<float>* values,
                    std::string* error) {
  HOTSPOT_CHECK(sector != nullptr && hour != nullptr && values != nullptr);
  HOTSPOT_CHECK(error != nullptr);
  const size_t l = kpi_names.size();
  if (fields.size() != l + 2) {
    *error = FieldCountError(l + 2, fields.size());
    return false;
  }
  if (!ParseIntField(fields[0], sector) || !ParseIntField(fields[1], hour) ||
      *sector < 0 || *hour < 0) {
    *error = "bad sector/hour ids '" + fields[0] + "," + fields[1] +
             "' (columns 'sector', 'hour')";
    return false;
  }
  values->resize(l);
  for (size_t k = 0; k < l; ++k) {
    if (!ParseFloatField(fields[k + 2], &(*values)[k])) {
      *error = "bad number '" + fields[k + 2] + "' in column '" +
               kpi_names[k] + "'";
      return false;
    }
  }
  return true;
}

IoStatus KpiCsvStreamReader::Open(const std::string& path) {
  path_ = path;
  line_number_ = 0;
  kpi_names_.clear();
  in_.open(path);
  if (!in_) {
    status_ = IoStatus::Error("cannot open " + path);
    return status_;
  }
  std::string line;
  if (!std::getline(in_, line)) {
    status_ = IoStatus::Error(LineError(path, 1, "missing header"));
    return status_;
  }
  line_number_ = 1;
  std::string error;
  if (!ParseKpiCsvHeader(line, &kpi_names_, &error)) {
    status_ = IoStatus::Error(LineError(path, 1, error));
    return status_;
  }
  status_ = IoStatus::Ok();
  opened_ = true;
  return status_;
}

bool KpiCsvStreamReader::Next(int* sector, int* hour,
                              std::vector<float>* values) {
  if (!opened_ || !status_.ok) return false;
  std::string line;
  while (std::getline(in_, line)) {
    ++line_number_;
    if (line.empty()) continue;
    std::string error;
    if (!ParseKpiCsvRow(ParseCsvLine(line), kpi_names_, sector, hour, values,
                        &error)) {
      status_ = IoStatus::Error(LineError(path_, line_number_, error));
      return false;
    }
    return true;
  }
  return false;  // clean EOF: status_ stays ok
}

IoStatus ReadKpiTensorCsv(const std::string& path, Tensor3<float>* kpis,
                          std::vector<std::string>* kpi_names) {
  HOTSPOT_CHECK(kpis != nullptr);
  KpiCsvStreamReader reader;
  IoStatus open_status = reader.Open(path);
  if (!open_status.ok) return open_status;
  const int l = reader.num_kpis();

  struct Cell {
    int sector;
    int hour;
    std::vector<float> values;
  };
  std::vector<Cell> cells;
  // Line number of the first occurrence of each (sector, hour) pair, so a
  // duplicate row — which would otherwise mask a missing cell past the
  // dense-coverage count check and leave a silently zero-filled tensor
  // cell — is rejected naming both lines.
  std::unordered_map<uint64_t, int> first_line;
  int max_sector = -1;
  int max_hour = -1;
  Cell cell;
  while (reader.Next(&cell.sector, &cell.hour, &cell.values)) {
    uint64_t key = (static_cast<uint64_t>(cell.sector) << 32) |
                   static_cast<uint32_t>(cell.hour);
    auto [it, inserted] = first_line.emplace(key, reader.line_number());
    if (!inserted) {
      return IoStatus::Error(LineError(
          path, reader.line_number(),
          "duplicate (sector, hour) = (" + std::to_string(cell.sector) +
              ", " + std::to_string(cell.hour) + "), first seen at line " +
              std::to_string(it->second)));
    }
    max_sector = std::max(max_sector, cell.sector);
    max_hour = std::max(max_hour, cell.hour);
    cells.push_back(std::move(cell));
  }
  if (!reader.status().ok) return reader.status();
  if (cells.empty()) return IoStatus::Error(path + ": no data rows");
  // In 64 bits: an id of INT_MAX must not wrap the grid's extent.
  const long long num_sectors = static_cast<long long>(max_sector) + 1;
  const long long num_hours = static_cast<long long>(max_hour) + 1;
  if (static_cast<long long>(cells.size()) != num_sectors * num_hours) {
    return IoStatus::Error(path + ": sparse (sector, hour) coverage — " +
                           std::to_string(cells.size()) + " rows for a " +
                           std::to_string(num_sectors) + "x" +
                           std::to_string(num_hours) + " grid");
  }
  // All validation passed — only now touch the outputs, so a failed load
  // never leaves a partially-filled tensor or name list behind.
  if (kpi_names != nullptr) *kpi_names = reader.kpi_names();
  // Ids are >= 0, no (sector, hour) repeats and the count is dense, so
  // the loop writes every cell exactly once.
  *kpis = Tensor3<float>(max_sector + 1, max_hour + 1, l, kUninitialized);
  for (const Cell& cell : cells) {
    float* slice = kpis->Slice(cell.sector, cell.hour);
    for (int k = 0; k < l; ++k) {
      slice[k] = cell.values[static_cast<size_t>(k)];
    }
  }
  return IoStatus::Ok();
}

IoStatus WriteTopologyCsv(const std::string& path,
                          const simnet::Topology& topology) {
  std::ofstream out(path);
  if (!out) return IoStatus::Error("cannot open " + path + " for writing");
  CsvWriter writer(&out);
  writer.WriteRow({"sector", "tower", "patch", "city", "x_km", "y_km",
                   "azimuth_deg", "archetype"});
  for (const simnet::Sector& sector : topology.sectors()) {
    writer.WriteRow({std::to_string(sector.id),
                     std::to_string(sector.tower_id),
                     std::to_string(sector.patch_id),
                     std::to_string(sector.city_id),
                     FormatNumber(sector.x_km, 9),
                     FormatNumber(sector.y_km, 9),
                     FormatNumber(sector.azimuth_deg, 9),
                     simnet::ArchetypeName(sector.archetype)});
  }
  out.flush();
  if (!out) return IoStatus::Error("write failed for " + path);
  return IoStatus::Ok();
}

IoStatus ReadTopologyCsv(const std::string& path,
                         simnet::Topology* topology) {
  HOTSPOT_CHECK(topology != nullptr);
  std::ifstream in(path);
  if (!in) return IoStatus::Error("cannot open " + path);
  std::string line;
  if (!std::getline(in, line)) {
    return IoStatus::Error(LineError(path, 1, "missing header"));
  }
  std::vector<simnet::Sector> sectors;
  int line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    std::vector<std::string> fields = ParseCsvLine(line);
    if (fields.size() != 8) {
      return IoStatus::Error(LineError(path, line_number,
                                       FieldCountError(8, fields.size())));
    }
    simnet::Sector sector;
    float x, y, azimuth;
    static constexpr const char* kColumns[] = {
        "sector", "tower", "patch", "city", "x_km", "y_km", "azimuth_deg"};
    int* int_fields[] = {&sector.id, &sector.tower_id, &sector.patch_id,
                         &sector.city_id};
    float* float_fields[] = {&x, &y, &azimuth};
    for (int c = 0; c < 7; ++c) {
      bool parsed = c < 4
                        ? ParseIntField(fields[static_cast<size_t>(c)],
                                        int_fields[c])
                        : ParseFloatField(fields[static_cast<size_t>(c)],
                                          float_fields[c - 4]);
      if (!parsed) {
        return IoStatus::Error(LineError(
            path, line_number,
            "bad value '" + fields[static_cast<size_t>(c)] +
                "' in column '" + kColumns[c] + "'"));
      }
    }
    sector.x_km = x;
    sector.y_km = y;
    sector.azimuth_deg = azimuth;
    bool found = false;
    for (int a = 0; a < simnet::kNumArchetypes; ++a) {
      if (fields[7] ==
          simnet::ArchetypeName(static_cast<simnet::Archetype>(a))) {
        sector.archetype = static_cast<simnet::Archetype>(a);
        found = true;
        break;
      }
    }
    if (!found) {
      return IoStatus::Error(
          LineError(path, line_number, "unknown archetype " + fields[7]));
    }
    if (sector.id != static_cast<int>(sectors.size())) {
      return IoStatus::Error(
          LineError(path, line_number, "sector ids must be dense 0-based"));
    }
    sectors.push_back(sector);
  }
  if (sectors.empty()) return IoStatus::Error(path + ": no sectors");
  *topology = simnet::Topology::FromSectors(std::move(sectors));
  return IoStatus::Ok();
}

}  // namespace hotspot::io
