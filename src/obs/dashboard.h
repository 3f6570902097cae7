// Sliding-window ETTR/MFU dashboard export for campaign and fleet runs.
//
// `--dashboard <file>` enables a process-global collector; each simulated
// job (one per campaign seed, one per fleet job per seed) contributes a
// windowed series sampled from its EttrTracker / MfuSeries at end of run:
// kDashboardPoints checkpoints across the retained metric window, each with
// the one-hour sliding ETTR and the nearest retained MFU sample. The CLI
// writes one deterministic JSON document after the engine finishes.
//
// Rides the existing retention machinery: with the campaign's two-hour
// retention the dashboard covers the trailing two simulated hours per job;
// with unbounded retention (SystemConfig::metrics_retention = 0) it covers
// the whole run.
//
// Side channel contract: collection never touches campaign/fleet output
// bytes (pinned by the cli_observability_equivalence gate). Entries are
// keyed by (campaign seed, job ordinal) in an ordered map, so the document
// is byte-stable across --jobs and worker interleavings.

#ifndef SRC_OBS_DASHBOARD_H_
#define SRC_OBS_DASHBOARD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/sim_time.h"
#include "src/metrics/ettr.h"

namespace byterobust {
namespace obs {

inline constexpr int kDashboardPoints = 16;

struct DashboardPoint {
  double t_s = 0.0;           // simulated seconds since campaign start
  double sliding_ettr = 0.0;  // one-hour sliding ETTR at t
  double mfu = 0.0;           // newest retained MFU sample at/before t
};

struct DashboardJob {
  std::string label;  // "<scenario> seed <seed>" or ".../<fleet job>"
  std::uint64_t seed = 0;
  int ordinal = 0;  // job index inside a fleet seed; 0 for plain campaigns
  double cumulative_ettr = 0.0;
  double min_mfu = 0.0;
  double max_mfu = 0.0;
  std::int64_t productive_steps = 0;
  std::vector<DashboardPoint> points;
};

// True when --dashboard armed a collector; instrument sites check this
// before sampling (same cheap-when-off contract as TraceEnabled()).
bool DashboardEnabled();

// Arms the process-global collector; the CLI calls this before running the
// engine and WriteDashboard() after.
void EnableDashboard();

// Samples one finished job's trackers into a DashboardJob series.
DashboardJob SampleDashboardJob(const std::string& label, std::uint64_t seed,
                                int ordinal, const EttrTracker& ettr,
                                const MfuSeries& mfu, SimTime now);

// Records a job under (seed, ordinal); last write wins, so a retried seed's
// final attempt replaces any partial earlier one. Thread-safe.
void RecordDashboardJob(DashboardJob job);

// Renders every recorded job as a JSON document and writes it to `path`.
// False + *error on I/O failure. Disarms the collector either way.
bool WriteDashboard(const std::string& path, std::string* error);

}  // namespace obs
}  // namespace byterobust

#endif  // SRC_OBS_DASHBOARD_H_
