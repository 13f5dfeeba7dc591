#include "stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "tensor/matrix.h"
#include "util/logging.h"

namespace hotspot {

Histogram::Histogram(double lo, double hi, int bins) : lo_(lo), hi_(hi) {
  HOTSPOT_CHECK_LT(lo, hi);
  HOTSPOT_CHECK_GT(bins, 0);
  counts_.assign(static_cast<size_t>(bins), 0);
}

void Histogram::Add(double value) {
  if (std::isnan(value)) return;
  double fraction = (value - lo_) / (hi_ - lo_);
  int bin = static_cast<int>(fraction * bins());
  bin = std::clamp(bin, 0, bins() - 1);
  ++counts_[static_cast<size_t>(bin)];
  ++total_;
}

void Histogram::AddAll(std::span<const float> values) {
  for (float v : values) Add(v);
}

long long Histogram::count(int bin) const {
  HOTSPOT_CHECK(bin >= 0 && bin < bins());
  return counts_[static_cast<size_t>(bin)];
}

double Histogram::RelativeCount(int bin) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(bin)) / static_cast<double>(total_);
}

double Histogram::BinCenter(int bin) const {
  return lo_ + (bin + 0.5) * (hi_ - lo_) / bins();
}

double Histogram::BinLow(int bin) const {
  return lo_ + bin * (hi_ - lo_) / bins();
}

int Histogram::ArgMaxBin() const {
  int best = 0;
  for (int b = 1; b < bins(); ++b) {
    if (count(b) > count(best)) best = b;
  }
  return best;
}

namespace {

std::string AsciiBars(const std::vector<double>& heights,
                      const std::vector<std::string>& labels, int width) {
  double max_height = 0.0;
  for (double h : heights) max_height = std::max(max_height, h);
  if (max_height <= 0.0) max_height = 1.0;
  std::string out;
  for (size_t i = 0; i < heights.size(); ++i) {
    int bar = static_cast<int>(std::round(heights[i] / max_height * width));
    out += labels[i] + " |" + std::string(static_cast<size_t>(bar), '#') +
           "\n";
  }
  return out;
}

}  // namespace

std::string Histogram::ToAscii(int width, bool log_scale) const {
  std::vector<double> heights;
  std::vector<std::string> labels;
  for (int b = 0; b < bins(); ++b) {
    double h = static_cast<double>(count(b));
    if (log_scale) h = h > 0 ? std::log10(h + 1.0) : 0.0;
    heights.push_back(h);
    char label[64];
    std::snprintf(label, sizeof(label), "%8.3f %10lld", BinCenter(b),
                  count(b));
    labels.push_back(label);
  }
  return AsciiBars(heights, labels, width);
}

CountHistogram::CountHistogram(int max_value) {
  HOTSPOT_CHECK_GE(max_value, 0);
  counts_.assign(static_cast<size_t>(max_value) + 1, 0);
}

void CountHistogram::Add(int value) {
  if (value < 0 || value > max_value()) return;
  ++counts_[static_cast<size_t>(value)];
  ++total_;
}

long long CountHistogram::count(int value) const {
  HOTSPOT_CHECK(value >= 0 && value <= max_value());
  return counts_[static_cast<size_t>(value)];
}

double CountHistogram::RelativeCount(int value) const {
  if (total_ == 0) return 0.0;
  return static_cast<double>(count(value)) / static_cast<double>(total_);
}

std::vector<int> CountHistogram::Peaks(double min_fraction) const {
  std::vector<int> peaks;
  for (int v = 0; v <= max_value(); ++v) {
    double here = RelativeCount(v);
    if (here < min_fraction || here == 0.0) continue;
    double left = v > 0 ? RelativeCount(v - 1) : -1.0;
    double right = v < max_value() ? RelativeCount(v + 1) : -1.0;
    if (here >= left && here >= right) peaks.push_back(v);
  }
  return peaks;
}

std::string CountHistogram::ToAscii(int width, bool log_scale) const {
  std::vector<double> heights;
  std::vector<std::string> labels;
  for (int v = 0; v <= max_value(); ++v) {
    double h = static_cast<double>(count(v));
    if (log_scale) h = h > 0 ? std::log10(h + 1.0) : 0.0;
    heights.push_back(h);
    char label[64];
    std::snprintf(label, sizeof(label), "%5d %10lld", v, count(v));
    labels.push_back(label);
  }
  return AsciiBars(heights, labels, width);
}

}  // namespace hotspot
