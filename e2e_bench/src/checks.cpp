#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>

namespace e2e {

namespace clustering = auditherm::clustering;
namespace linalg = auditherm::linalg;
namespace sysid = auditherm::sysid;
namespace timeseries = auditherm::timeseries;

namespace {

std::string format(const char* fmt, double a, double b = 0.0) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

std::vector<int> parse_ids(const std::string& text) {
  std::vector<int> ids;
  std::istringstream in(text);
  int id = 0;
  while (in >> id) ids.push_back(id);
  return ids;
}

/// Plain row-major square matrix for the checks' own arithmetic.
using Dense = std::vector<double>;

Dense multiply(const Dense& a, const Dense& b, std::size_t n) {
  Dense c(n * n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = 0; k < n; ++k) {
      const double aik = a[i * n + k];
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) c[i * n + j] += aik * b[k * n + j];
    }
  }
  return c;
}

double max_abs(const Dense& a) {
  double m = 0.0;
  for (const double v : a) m = std::max(m, std::fabs(v));
  return m;
}

}  // namespace

std::vector<ReportCluster> parse_clusters(const std::string& report) {
  std::vector<ReportCluster> clusters;
  std::istringstream in(report);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("  cluster ", 0) != 0) continue;
    const auto colon = line.find(':');
    const auto arrow = line.find("-> keep:");
    if (colon == std::string::npos || arrow == std::string::npos) continue;
    ReportCluster c;
    c.members = parse_ids(line.substr(colon + 1, arrow - colon - 1));
    c.keep = parse_ids(line.substr(arrow + 8));
    clusters.push_back(std::move(c));
  }
  return clusters;
}

double parse_number_after(const std::string& report, const std::string& label) {
  const auto at = report.find(label);
  if (at == std::string::npos) return std::numeric_limits<double>::quiet_NaN();
  return std::strtod(report.c_str() + at + label.size(), nullptr);
}

CheckResult check_csv_roundtrip(const std::string& name,
                                const timeseries::MultiTrace& expected,
                                const timeseries::MultiTrace& read) {
  CheckResult r{name, false, ""};
  if (read.channels() != expected.channels() ||
      read.size() != expected.size() ||
      read.grid().start() != expected.grid().start() ||
      read.grid().step() != expected.grid().step()) {
    r.detail = "shape, channels or time grid differ";
    return r;
  }
  std::size_t nan_mismatch = 0;
  std::size_t value_mismatch = 0;
  std::size_t nans = 0;
  for (std::size_t k = 0; k < expected.size(); ++k) {
    for (std::size_t c = 0; c < expected.channel_count(); ++c) {
      const double e = expected.value(k, c);
      const double v = read.value(k, c);
      if (std::isnan(e) != std::isnan(v)) {
        ++nan_mismatch;
      } else if (std::isnan(e)) {
        ++nans;
      } else if (std::memcmp(&e, &v, sizeof(double)) != 0) {
        ++value_mismatch;
      }
    }
  }
  r.passed = nan_mismatch == 0 && value_mismatch == 0;
  r.detail = std::to_string(expected.size()) + " rows x " +
             std::to_string(expected.channel_count()) + " channels, " +
             std::to_string(nans) + " NaN; mismatches: " +
             std::to_string(nan_mismatch) + " NaN positions, " +
             std::to_string(value_mismatch) + " values";
  return r;
}

CheckResult check_laplacian(const std::string& name,
                            const linalg::Matrix& weights,
                            clustering::LaplacianKind kind,
                            const clustering::SpectralAnalysis& spectrum) {
  CheckResult r{name, false, ""};
  const std::size_t n = weights.rows();
  const std::size_t m = spectrum.eigenvalues.size();
  if (weights.cols() != n || spectrum.eigenvectors.rows() != n ||
      spectrum.eigenvectors.cols() != m || m == 0) {
    r.detail = "spectrum shape does not match the weights";
    return r;
  }
  Dense l(n * n, 0.0);
  std::vector<double> degree(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) degree[i] += weights(i, j);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (kind == clustering::LaplacianKind::kUnnormalized) {
        l[i * n + j] = i == j ? degree[i] : -weights(i, j);
      } else if (i == j) {
        l[i * n + j] = 1.0;
      } else if (degree[i] > 0.0 && degree[j] > 0.0) {
        l[i * n + j] = -weights(i, j) / std::sqrt(degree[i] * degree[j]);
      }
    }
  }
  double l_norm = 0.0;
  for (const double v : l) l_norm += v * v;
  l_norm = std::max(1.0, std::sqrt(l_norm));

  double residual = 0.0;
  for (std::size_t p = 0; p < m; ++p) {
    const double lambda = spectrum.eigenvalues[p];
    double norm2 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      double lv = 0.0;
      for (std::size_t j = 0; j < n; ++j) {
        lv += l[i * n + j] * spectrum.eigenvectors(j, p);
      }
      const double d = lv - lambda * spectrum.eigenvectors(i, p);
      norm2 += d * d;
    }
    residual = std::max(residual, std::sqrt(norm2));
  }
  double ortho = 0.0;
  for (std::size_t p = 0; p < m; ++p) {
    for (std::size_t q = p; q < m; ++q) {
      double dot = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        dot += spectrum.eigenvectors(i, p) * spectrum.eigenvectors(i, q);
      }
      ortho = std::max(ortho, std::fabs(dot - (p == q ? 1.0 : 0.0)));
    }
  }
  const double lambda0 = spectrum.eigenvalues[0];
  const double tol = 1e-8 * l_norm;
  r.passed = residual <= tol && ortho <= 1e-8 && std::fabs(lambda0) <= tol;
  r.detail = std::to_string(n) + " vertices, " + std::to_string(m) +
             " pairs; " +
             format("max ||Lv - lv|| %.2e, max |VtV - I| %.2e", residual,
                    ortho) +
             format(", lambda0 %.2e (tolerance %.1e)", lambda0, tol);
  return r;
}

CheckResult check_partition(const std::string& name,
                            const std::vector<ReportCluster>& clusters,
                            const std::vector<int>& sensors) {
  CheckResult r{name, false, ""};
  std::multiset<int> seen;
  std::size_t bad_keep = 0;
  for (const auto& c : clusters) {
    seen.insert(c.members.begin(), c.members.end());
    if (c.keep.empty()) ++bad_keep;
    for (const int id : c.keep) {
      if (std::find(c.members.begin(), c.members.end(), id) ==
          c.members.end()) {
        ++bad_keep;
      }
    }
  }
  const std::multiset<int> expected(sensors.begin(), sensors.end());
  const bool partition = !clusters.empty() && seen == expected;
  r.passed = partition && bad_keep == 0;
  r.detail = std::to_string(clusters.size()) + " clusters over " +
             std::to_string(sensors.size()) + " sensors; partition " +
             (partition ? "exact" : "broken") + ", " +
             std::to_string(bad_keep) + " representatives outside their cluster";
  return r;
}

CheckResult check_models_agree(const std::string& name,
                               const sysid::ThermalModel& a,
                               const sysid::ThermalModel& b, double tolerance) {
  CheckResult r{name, false, ""};
  const auto diff = [](const linalg::Matrix& x, const linalg::Matrix& y) {
    if (x.rows() != y.rows() || x.cols() != y.cols()) {
      return std::numeric_limits<double>::infinity();
    }
    double d = 0.0;
    for (std::size_t i = 0; i < x.data().size(); ++i) {
      d = std::max(d, std::fabs(x.data()[i] - y.data()[i]));
    }
    return d;
  };
  if (a.state_channels() != b.state_channels() ||
      a.input_channels() != b.input_channels()) {
    r.detail = "models cover different channels";
    return r;
  }
  const double d =
      std::max({diff(a.a(), b.a()), diff(a.a2(), b.a2()), diff(a.b(), b.b())});
  r.passed = d <= tolerance;
  r.detail = format("max coefficient difference %.2e (limit %.0e)", d,
                    tolerance);
  return r;
}

double spectral_radius(const sysid::ThermalModel& model) {
  const std::size_t p = model.state_count();
  const bool second = model.order() == sysid::ModelOrder::kSecond;
  const std::size_t n = second ? 2 * p : p;
  // State form of eq. 2 over [T(k); dT(k)]:
  //   T(k+1)  = A1 T + A2 dT + ...,  dT(k+1) = (A1 - I) T + A2 dT + ...
  Dense m(n * n, 0.0);
  for (std::size_t i = 0; i < p; ++i) {
    for (std::size_t j = 0; j < p; ++j) {
      m[i * n + j] = model.a()(i, j);
      if (second) {
        m[i * n + p + j] = model.a2()(i, j);
        m[(p + i) * n + j] = model.a()(i, j) - (i == j ? 1.0 : 0.0);
        m[(p + i) * n + p + j] = model.a2()(i, j);
      }
    }
  }
  // rho = lim ||M^k||^(1/k); M^(2^s) is kept as a unit-max-norm matrix
  // times exp(log_scale) so repeated squaring neither overflows nor
  // underflows.
  double scale = max_abs(m);
  if (scale == 0.0) return 0.0;
  for (double& v : m) v /= scale;
  double log_scale = std::log(scale);
  constexpr int kSquarings = 40;
  for (int s = 0; s < kSquarings; ++s) {
    m = multiply(m, m, n);
    scale = max_abs(m);
    if (scale == 0.0) return 0.0;
    for (double& v : m) v /= scale;
    log_scale = 2.0 * log_scale + std::log(scale);
  }
  return std::exp(log_scale / std::ldexp(1.0, kSquarings));
}

CheckResult check_less(const std::string& name, double value, double limit,
                       const std::string& what) {
  CheckResult r{name, false, ""};
  r.passed = std::isfinite(value) && value < limit;
  r.detail = what + format(" %.6g < %.6g", value, limit);
  return r;
}

}  // namespace e2e
