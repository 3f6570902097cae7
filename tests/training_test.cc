// Unit tests for the training-job runtime, perf model and loss model.

#include <gtest/gtest.h>

#include <cmath>

#include "src/cluster/cluster.h"
#include "src/sim/simulator.h"
#include "src/training/train_job.h"

namespace byterobust {
namespace {

JobConfig SmallJob() {
  JobConfig cfg;
  cfg.name = "test-job";
  cfg.parallelism.tp = 2;
  cfg.parallelism.pp = 2;
  cfg.parallelism.dp = 2;
  cfg.parallelism.gpus_per_machine = 2;
  cfg.base_step_time = Seconds(10);
  cfg.base_mfu = 0.30;
  return cfg;
}

// Records every completed step: a horizon of one step makes each run one step.
class StepRecorder final : public StepObserver {
 public:
  std::int64_t Horizon(const StepRun&) const override { return 1; }
  void OnRun(const StepRun& run) override { records.push_back(run.Record(0)); }

  std::vector<StepRecord> records;
};

class TrainJobTest : public ::testing::Test {
 protected:
  TrainJobTest() : cluster_(4, 2, 2), job_(SmallJob(), &sim_, &cluster_, 42) {}

  Simulator sim_;
  Cluster cluster_;
  TrainJob job_;
};

TEST_F(TrainJobTest, StepsAdvanceOnSchedule) {
  job_.Start();
  sim_.RunUntil(Seconds(35));
  EXPECT_EQ(job_.steps_completed(), 3);
  EXPECT_EQ(job_.resume_step(), 3);
  EXPECT_EQ(job_.max_step_reached(), 3);
  EXPECT_EQ(job_.state(), JobRunState::kRunning);
}

TEST_F(TrainJobTest, ObserversSeeEveryStep) {
  StepRecorder recorder;
  job_.AddStepObserver(&recorder);
  const std::vector<StepRecord>& records = recorder.records;
  job_.Start();
  sim_.RunUntil(Seconds(25));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].step, 0);
  EXPECT_EQ(records[1].step, 1);
  EXPECT_EQ(records[0].end - records[0].start, Seconds(10));
  EXPECT_FALSE(records[0].recompute);
  EXPECT_FALSE(records[0].is_nan);
  EXPECT_GT(records[0].loss, 0.0);
}

TEST_F(TrainJobTest, StopCancelsInFlightStep) {
  job_.Start();
  sim_.RunUntil(Seconds(15));
  job_.Stop();
  sim_.RunUntil(Seconds(60));
  EXPECT_EQ(job_.steps_completed(), 1);
  EXPECT_EQ(job_.state(), JobRunState::kStopped);
}

TEST_F(TrainJobTest, CrashAndHangStopProgress) {
  job_.Start();
  sim_.RunUntil(Seconds(15));
  job_.Crash();
  EXPECT_EQ(job_.state(), JobRunState::kCrashed);
  sim_.RunUntil(Seconds(60));
  EXPECT_EQ(job_.steps_completed(), 1);

  job_.Start();
  EXPECT_EQ(job_.state(), JobRunState::kRunning);
  sim_.RunUntil(Seconds(75));
  job_.Hang(5);
  EXPECT_EQ(job_.state(), JobRunState::kHung);
  EXPECT_EQ(job_.hang_culprit(), 5);
  sim_.RunUntil(Seconds(200));
  EXPECT_EQ(job_.steps_completed(), 2);
}

TEST_F(TrainJobTest, RollbackReplaysStepsAsRecompute) {
  StepRecorder recorder;
  job_.AddStepObserver(&recorder);
  const std::vector<StepRecord>& records = recorder.records;
  job_.Start();
  sim_.RunUntil(Seconds(45));  // 4 steps done (0..3)
  job_.Stop();
  job_.RollbackToStep(2);
  job_.Start();
  sim_.RunUntil(Seconds(70));  // replays 2,3 then new 4 (capped by time)
  ASSERT_GE(records.size(), 6u);
  EXPECT_EQ(records[4].step, 2);
  EXPECT_TRUE(records[4].recompute);
  EXPECT_EQ(records[5].step, 3);
  EXPECT_TRUE(records[5].recompute);
  // Bit-wise curve overlap: the replayed loss equals the original (Fig. 2).
  EXPECT_DOUBLE_EQ(records[4].loss, records[2].loss);
  EXPECT_DOUBLE_EQ(records[5].loss, records[3].loss);
}

TEST_F(TrainJobTest, RollbackValidatesRange) {
  job_.Start();
  sim_.RunUntil(Seconds(25));
  job_.Stop();
  EXPECT_THROW(job_.RollbackToStep(-1), std::invalid_argument);
  EXPECT_THROW(job_.RollbackToStep(10), std::invalid_argument);
  job_.RollbackToStep(0);
  EXPECT_EQ(job_.resume_step(), 0);
}

TEST_F(TrainJobTest, CodeVersionStackAndRollback) {
  EXPECT_EQ(job_.current_version().id, 0);
  EXPECT_FALSE(job_.RollbackCodeVersion());  // cannot pop the base
  job_.ApplyCodeVersion({1, 1.2, false, 0, false, "fused kernels"});
  EXPECT_EQ(job_.current_version().id, 1);
  EXPECT_TRUE(job_.HasVersion(1));
  EXPECT_TRUE(job_.HasVersion(0));
  EXPECT_TRUE(job_.RollbackCodeVersion());
  EXPECT_EQ(job_.current_version().id, 0);
  EXPECT_FALSE(job_.HasVersion(1));
}

TEST_F(TrainJobTest, EfficiencyShortensStepsAndRaisesMfu) {
  const SimDuration base_step = job_.CurrentStepTime();
  const double base_mfu = job_.CurrentMfu();
  job_.ApplyCodeVersion({1, 1.25, false, 0, false, ""});
  EXPECT_EQ(job_.CurrentStepTime(), static_cast<SimDuration>(base_step / 1.25));
  EXPECT_NEAR(job_.CurrentMfu(), base_mfu * 1.25, 1e-9);
}

TEST_F(TrainJobTest, SlowGpuDragsWholeJob) {
  cluster_.machine(2).gpu(1).clock_ratio = 0.5;
  EXPECT_DOUBLE_EQ(PerfModel::SlowestClockRatio(cluster_), 0.5);
  EXPECT_EQ(job_.CurrentStepTime(), Seconds(20));
  EXPECT_NEAR(job_.CurrentMfu(), 0.15, 1e-9);
}

TEST_F(TrainJobTest, NanLossPropagatesToRecords) {
  StepRecorder recorder;
  job_.AddStepObserver(&recorder);
  const std::vector<StepRecord>& records = recorder.records;
  job_.SetNanLoss(true);
  job_.Start();  // Start() clears transient NaN inputs
  sim_.RunUntil(Seconds(15));
  ASSERT_EQ(records.size(), 1u);
  EXPECT_FALSE(records[0].is_nan);
  job_.SetNanLoss(true);
  sim_.RunUntil(Seconds(25));
  ASSERT_EQ(records.size(), 2u);
  EXPECT_TRUE(records[1].is_nan);
  EXPECT_TRUE(std::isnan(records[1].loss));
}

TEST_F(TrainJobTest, RunCountIncrements) {
  EXPECT_EQ(job_.run_count(), 0);
  job_.Start();
  EXPECT_EQ(job_.run_count(), 1);
  job_.Start();  // already running: no-op
  EXPECT_EQ(job_.run_count(), 1);
  job_.Stop();
  job_.Start();
  EXPECT_EQ(job_.run_count(), 2);
}

TEST(JobConfigTest, Table5SetupsMatchPaper) {
  const JobConfig j70_128 = Table5Job70B(128);
  EXPECT_EQ(j70_128.parallelism.tp, 8);
  EXPECT_EQ(j70_128.parallelism.pp, 8);
  EXPECT_EQ(j70_128.parallelism.dp, 32);
  EXPECT_EQ(j70_128.parallelism.num_machines(), 128);
  EXPECT_EQ(j70_128.global_batch_size, 512);

  const JobConfig j256_1024 = Table5Job256B(1024);
  EXPECT_EQ(j256_1024.parallelism.pp, 16);
  EXPECT_EQ(j256_1024.parallelism.dp, 128);
  EXPECT_EQ(j256_1024.parallelism.num_machines(), 1024);
  EXPECT_EQ(j256_1024.global_batch_size, 2048);

  EXPECT_THROW(Table5Job70B(512), std::invalid_argument);
  EXPECT_THROW(Table5Job256B(128), std::invalid_argument);
}

TEST(JobConfigTest, ProductionJobsUse9600Gpus) {
  EXPECT_EQ(ProductionDenseJob().parallelism.world_size(), 9600);
  EXPECT_EQ(ProductionMoeJob().parallelism.world_size(), 9600);
  EXPECT_EQ(ProductionDenseJob().parallelism.num_machines(), 1200);
}

TEST(LossModelTest, DeterministicAndDecreasing) {
  const JobConfig cfg = SmallJob();
  LossModel a(cfg, 7);
  LossModel b(cfg, 7);
  EXPECT_DOUBLE_EQ(a.LossAt(100), b.LossAt(100));
  // Long-run trend decreases even with noise.
  EXPECT_GT(a.LossAt(0), a.LossAt(5000));
  EXPECT_GT(a.LossAt(5000), a.LossAt(50000));
  EXPECT_GT(a.LossAt(1000000), cfg.loss_floor * 0.9);
  EXPECT_GT(a.GradNormAt(100), 0.0);
}

TEST(LossModelTest, DifferentSeedsDiffer) {
  const JobConfig cfg = SmallJob();
  LossModel a(cfg, 1);
  LossModel b(cfg, 2);
  EXPECT_NE(a.LossAt(123), b.LossAt(123));
}

TEST(TrainJobTest2, RejectsClusterSmallerThanJob) {
  Simulator sim;
  Cluster tiny(2, 2);
  EXPECT_THROW(TrainJob(SmallJob(), &sim, &tiny, 1), std::invalid_argument);
}

}  // namespace
}  // namespace byterobust
