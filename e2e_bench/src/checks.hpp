#pragma once

// Correctness checks computed apart from the program: each takes an
// output of the program (a parsed report, an artifact, a model) and
// re-derives what must hold with the benchmark's own arithmetic. Every
// check is pure, so --self-test can feed it a corrupted copy.

#include <string>
#include <vector>

#include "auditherm/clustering/spectral.hpp"
#include "auditherm/sysid/model.hpp"
#include "auditherm/timeseries/multi_trace.hpp"
#include "common.hpp"

namespace e2e {

/// One "cluster k: ... -> keep: ..." line of an analyze report.
struct ReportCluster {
  std::vector<int> members;
  std::vector<int> keep;
};

/// Clusters listed in an analyze report.
[[nodiscard]] std::vector<ReportCluster> parse_clusters(
    const std::string& report);
/// The number printed after the first occurrence of `label`; NaN when
/// absent.
[[nodiscard]] double parse_number_after(const std::string& report,
                                        const std::string& label);

/// Values and NaN positions of `read` equal `expected` bit for bit.
[[nodiscard]] CheckResult check_csv_roundtrip(
    const std::string& name, const auditherm::timeseries::MultiTrace& expected,
    const auditherm::timeseries::MultiTrace& read);

/// Eigenpairs of the Laplacian of `weights` (built here from the weights:
/// D - W or I - D^-1/2 W D^-1/2): small residual ||Lv - lv||,
/// orthonormal columns, and a zero smallest eigenvalue.
[[nodiscard]] CheckResult check_laplacian(
    const std::string& name, const auditherm::linalg::Matrix& weights,
    auditherm::clustering::LaplacianKind kind,
    const auditherm::clustering::SpectralAnalysis& spectrum);

/// The report's clusters partition `sensors` and each kept
/// representative belongs to its own cluster.
[[nodiscard]] CheckResult check_partition(const std::string& name,
                                          const std::vector<ReportCluster>& clusters,
                                          const std::vector<int>& sensors);

/// Largest coefficient difference between two models over the same
/// channels is at most `tolerance`.
[[nodiscard]] CheckResult check_models_agree(
    const std::string& name, const auditherm::sysid::ThermalModel& a,
    const auditherm::sysid::ThermalModel& b, double tolerance);

/// Spectral radius of the model's (augmented) transition matrix,
/// computed by repeated squaring (Gelfand's formula).
[[nodiscard]] double spectral_radius(const auditherm::sysid::ThermalModel& m);

[[nodiscard]] CheckResult check_less(const std::string& name, double value,
                                     double limit, const std::string& what);

}  // namespace e2e
