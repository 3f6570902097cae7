// Weighted-average scheduling (WAS) time on machine eviction, per the
// Fig. 12 methodology (Sec. 8.2.1): weight eviction sizes 1..P99 by the
// binomial failure model of Sec. 6.2, add a catastrophic switch failure at a
// fixed probability, and price each recovery strategy with RestartCostModel.
// Used by the Fig. 12 section of the reproduction report (src/repro/).

#ifndef SRC_RECOVERY_WAS_MODEL_H_
#define SRC_RECOVERY_WAS_MODEL_H_

#include "src/recovery/restart_model.h"
#include "src/recovery/warm_standby.h"

namespace byterobust {

struct WasEstimate {
  int p99_evictions = 0;   // P99 faulty-machine count N at this scale
  double requeue_s = 0.0;
  double reschedule_s = 0.0;
  double oracle_s = 0.0;      // unlimited warm standbys
  double byterobust_s = 0.0;  // standby wake up to N, reschedule the shortfall
};

WasEstimate EstimateWas(int num_machines, const RestartCostModel& model = {},
                        const StandbyConfig& standby = {},
                        int catastrophic_machines = 32,
                        double catastrophic_weight = 0.01);

}  // namespace byterobust

#endif  // SRC_RECOVERY_WAS_MODEL_H_
