#include "wfms/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>

#include "wfms/builder.h"
#include "wfms/helpers.h"

namespace fedflow::wfms {
namespace {

/// Scriptable invoker: each function maps to a handler plus a fixed duration.
class FakeInvoker : public ProgramInvoker {
 public:
  using Handler =
      std::function<Result<Table>(const std::vector<Value>& args)>;

  void Define(const std::string& fn, VDuration duration, Handler handler) {
    handlers_[fn] = {duration, std::move(handler)};
  }

  /// Convenience: fn(args) returns one row {col: args[0] + delta}.
  void DefineAddOne(const std::string& fn, VDuration duration,
                    const std::string& col = "v") {
    Define(fn, duration, [col](const std::vector<Value>& args) {
      Schema s;
      s.AddColumn(col, DataType::kInt);
      Table t(s);
      t.AppendRowUnchecked({Value::Int(args.empty() ? 1 : args[0].AsInt() + 1)});
      return t;
    });
  }

  Result<InvokeResult> Invoke(const std::string& system,
                              const std::string& function,
                              const std::vector<Value>& args,
                              const obs::TraceHandle& /*trace*/) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      calls_.emplace_back(system, function);
    }
    auto it = handlers_.find(function);
    if (it == handlers_.end()) {
      return Status::NotFound("fake function not defined: " + function);
    }
    FEDFLOW_ASSIGN_OR_RETURN(Table out, it->second.second(args));
    InvokeResult r;
    r.output = std::move(out);
    r.duration = it->second.first;
    r.steps.Add(steps::kProcessActivities, it->second.first);
    return r;
  }

  std::vector<std::pair<std::string, std::string>> calls() {
    std::lock_guard<std::mutex> lock(mu_);
    return calls_;
  }

 private:
  std::map<std::string, std::pair<VDuration, Handler>> handlers_;
  std::mutex mu_;
  std::vector<std::pair<std::string, std::string>> calls_;
};

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : engine_(EngineOptions{}) {}

  Engine engine_;
  FakeInvoker invoker_;
};

TEST_F(EngineTest, SequentialChainComputesAdditiveTime) {
  invoker_.DefineAddOne("f1", 100);
  invoker_.DefineAddOne("f2", 200);
  ProcessBuilder b("chain");
  b.Input("x", DataType::kInt);
  b.Program("A", "sys", "f1", {InputSource::FromProcessInput("x")});
  b.Program("B", "sys", "f2", {InputSource::FromActivity("A", "v")});
  b.Connect("A", "B");
  b.Output("B");
  auto def = b.Build();
  ASSERT_TRUE(def.ok());
  auto result = engine_.RunDefinition(*def, {Value::Int(5)}, &invoker_);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->output.rows()[0][0].AsInt(), 7);
  EXPECT_EQ(result->elapsed_us, 300);
  EXPECT_EQ(result->breakdown.Of(steps::kProcessActivities), 300);
}

TEST_F(EngineTest, ParallelForkElapsedIsMaxNotSum) {
  invoker_.DefineAddOne("slow", 1000, "a");
  invoker_.DefineAddOne("fast", 100, "b");
  ProcessBuilder b("fork");
  b.Input("x", DataType::kInt);
  b.Program("S", "sys", "slow", {InputSource::FromProcessInput("x")});
  b.Program("F", "sys", "fast", {InputSource::FromProcessInput("x")});
  b.Helper("J", "concat",
           {InputSource::FromActivity("S", ""),
            InputSource::FromActivity("F", "")});
  b.Connect("S", "J");
  b.Connect("F", "J");
  b.Output("J");
  auto def = b.Build();
  ASSERT_TRUE(def.ok());
  auto result = engine_.RunDefinition(*def, {Value::Int(1)}, &invoker_);
  ASSERT_TRUE(result.ok()) << result.status();
  // Elapsed: max(1000, 100) = 1000, not 1100. Work records 1100.
  EXPECT_EQ(result->elapsed_us, 1000);
  EXPECT_EQ(result->breakdown.Of(steps::kProcessActivities), 1100);
  // Concat produced one row with both columns.
  EXPECT_EQ(result->output.schema().num_columns(), 2u);
  EXPECT_EQ(result->output.rows()[0][0].AsInt(), 2);
}

TEST_F(EngineTest, NavigationAndContainerCostsCharged) {
  EngineOptions opts;
  opts.navigation_cost_us = 10;
  opts.container_cost_us = 5;
  Engine engine(opts);
  invoker_.DefineAddOne("f", 100);
  ProcessBuilder b("p");
  b.Program("A", "sys", "f", {InputSource::Constant(Value::Int(1))});
  auto def = b.Build();
  ASSERT_TRUE(def.ok());
  auto result = engine.RunDefinition(*def, {}, &invoker_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->elapsed_us, 115);
  EXPECT_EQ(result->breakdown.Of(steps::kWorkflowNavigation), 10);
  EXPECT_EQ(result->breakdown.Of(steps::kProcessActivities), 105);
}

TEST_F(EngineTest, TransitionConditionRoutesFlow) {
  invoker_.DefineAddOne("src", 10);
  invoker_.DefineAddOne("then", 10, "t");
  invoker_.DefineAddOne("else", 10, "e");
  ProcessBuilder b("route");
  b.Input("x", DataType::kInt);
  b.Program("A", "sys", "src", {InputSource::FromProcessInput("x")});
  b.Program("T", "sys", "then", {InputSource::Constant(Value::Int(0))});
  b.Program("E", "sys", "else", {InputSource::Constant(Value::Int(0))});
  b.Helper("OUT", "union_all",
           {InputSource::FromActivity("T", ""),
            InputSource::FromActivity("E", "")});
  b.Join(JoinKind::kOr);
  b.Connect("A", "T", "A.v > 100");
  b.Connect("A", "E", "A.v <= 100");
  b.Connect("T", "OUT");
  b.Connect("E", "OUT");
  b.Output("E");
  auto def = b.Build();
  ASSERT_TRUE(def.ok()) << def.status();
  auto result = engine_.RunDefinition(*def, {Value::Int(5)}, &invoker_);
  ASSERT_TRUE(result.ok()) << result.status();
  // A.v = 6 <= 100: E ran, T was dead-path eliminated.
  bool t_dead = false, e_ran = false;
  for (const AuditEntry& entry : result->audit.entries()) {
    if (entry.activity == "T" && entry.event == AuditEvent::kActivityDead) {
      t_dead = true;
    }
    if (entry.activity == "E" &&
        entry.event == AuditEvent::kActivityFinished) {
      e_ran = true;
    }
  }
  EXPECT_TRUE(t_dead);
  EXPECT_TRUE(e_ran);
}

TEST_F(EngineTest, DeadPathPropagatesThroughAndJoin) {
  invoker_.DefineAddOne("f", 10);
  ProcessBuilder b("deadchain");
  b.Program("A", "sys", "f", {InputSource::Constant(Value::Int(1))});
  b.Program("B", "sys", "f", {InputSource::Constant(Value::Int(1))});
  b.Program("C", "sys", "f", {InputSource::Constant(Value::Int(1))});
  b.Connect("A", "B", "1 = 0");  // never true
  b.Connect("B", "C");           // C AND-joins on dead B
  b.Output("A");
  auto def = b.Build();
  ASSERT_TRUE(def.ok());
  auto result = engine_.RunDefinition(*def, {}, &invoker_);
  ASSERT_TRUE(result.ok()) << result.status();
  int dead = 0;
  for (const AuditEntry& entry : result->audit.entries()) {
    if (entry.event == AuditEvent::kActivityDead) ++dead;
  }
  EXPECT_EQ(dead, 2);  // B and C
}

TEST_F(EngineTest, DeadOutputActivityIsAnError) {
  invoker_.DefineAddOne("f", 10);
  ProcessBuilder b("deadout");
  b.Program("A", "sys", "f", {InputSource::Constant(Value::Int(1))});
  b.Program("B", "sys", "f", {InputSource::Constant(Value::Int(1))});
  b.Connect("A", "B", "1 = 0");
  b.Output("B");
  auto def = b.Build();
  ASSERT_TRUE(def.ok());
  auto result = engine_.RunDefinition(*def, {}, &invoker_);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("dead-path"), std::string::npos);
}

TEST_F(EngineTest, OrJoinFiresOnFirstTrueEdge) {
  invoker_.DefineAddOne("f", 10);
  ProcessBuilder b("orjoin");
  b.Program("A", "sys", "f", {InputSource::Constant(Value::Int(1))});
  b.Program("B", "sys", "f", {InputSource::Constant(Value::Int(1))});
  b.Program("C", "sys", "f", {InputSource::Constant(Value::Int(7))});
  b.Join(JoinKind::kOr);
  b.Connect("A", "C");
  b.Connect("B", "C", "1 = 0");
  b.Output("C");
  auto def = b.Build();
  ASSERT_TRUE(def.ok());
  auto result = engine_.RunDefinition(*def, {}, &invoker_);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->output.rows()[0][0].AsInt(), 8);
}

TEST_F(EngineTest, ActivityFailureAbortsProcess) {
  invoker_.DefineAddOne("ok", 10);
  invoker_.Define("boom", 10, [](const std::vector<Value>&) -> Result<Table> {
    return Status::ExecutionError("kaput");
  });
  ProcessBuilder b("failing");
  b.Program("A", "sys", "ok", {InputSource::Constant(Value::Int(1))});
  b.Program("B", "sys", "boom", {InputSource::FromActivity("A", "v")});
  b.Connect("A", "B");
  b.Output("B");
  auto def = b.Build();
  ASSERT_TRUE(def.ok());
  auto result = engine_.RunDefinition(*def, {}, &invoker_);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("kaput"), std::string::npos);
  EXPECT_NE(result.status().message().find("activity B"), std::string::npos);
}

TEST_F(EngineTest, MissingInvokerForProgramActivities) {
  ProcessBuilder b("noinv");
  b.Program("A", "sys", "f", {});
  auto def = b.Build();
  ASSERT_TRUE(def.ok());
  auto result = engine_.RunDefinition(*def, {}, nullptr);
  EXPECT_FALSE(result.ok());
}

TEST_F(EngineTest, HelperOnlyProcessNeedsNoInvoker) {
  ProcessBuilder b("helpers");
  b.Helper("C", "constant_five", {});
  auto def = b.Build();
  ASSERT_TRUE(def.ok());
  ASSERT_TRUE(engine_
                  .RegisterHelper("constant_five",
                                  MakeConstHelper("v", Value::Int(5)))
                  .ok());
  auto result = engine_.RunDefinition(*def, {}, nullptr);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->output.rows()[0][0].AsInt(), 5);
}

TEST_F(EngineTest, UnknownHelperFails) {
  ProcessBuilder b("nohelper");
  b.Helper("H", "does_not_exist", {});
  auto def = b.Build();
  ASSERT_TRUE(def.ok());
  auto result = engine_.RunDefinition(*def, {}, &invoker_);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, ProcessInputArityAndCoercion) {
  invoker_.DefineAddOne("f", 10);
  ProcessBuilder b("inputs");
  b.Input("x", DataType::kInt);
  b.Program("A", "sys", "f", {InputSource::FromProcessInput("x")});
  auto def = b.Build();
  ASSERT_TRUE(def.ok());
  EXPECT_FALSE(engine_.RunDefinition(*def, {}, &invoker_).ok());
  EXPECT_FALSE(
      engine_.RunDefinition(*def, {Value::Int(1), Value::Int(2)}, &invoker_)
          .ok());
  // VARCHAR '41' coerces to INT 41.
  auto result =
      engine_.RunDefinition(*def, {Value::Varchar("41")}, &invoker_);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->output.rows()[0][0].AsInt(), 42);
}

TEST_F(EngineTest, ScalarInputFromMultiRowOutputFails) {
  invoker_.Define("multi", 10, [](const std::vector<Value>&) {
    Schema s;
    s.AddColumn("v", DataType::kInt);
    Table t(s);
    t.AppendRowUnchecked({Value::Int(1)});
    t.AppendRowUnchecked({Value::Int(2)});
    return Result<Table>(t);
  });
  invoker_.DefineAddOne("g", 10);
  ProcessBuilder b("multirow");
  b.Program("A", "sys", "multi", {});
  b.Program("B", "sys", "g", {InputSource::FromActivity("A", "v")});
  b.Connect("A", "B");
  b.Output("B");
  auto def = b.Build();
  ASSERT_TRUE(def.ok());
  auto result = engine_.RunDefinition(*def, {}, &invoker_);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("exactly one row"),
            std::string::npos);
}

TEST_F(EngineTest, ScalarInputNeedsASingleColumnSource) {
  // Two sources fail with this message: a two-column output named without a
  // column, and an output removed by dead-path elimination.
  const std::string kMessage =
      "scalar input requires a single-column source; specify a column";
  invoker_.Define("pair", 10, [](const std::vector<Value>&) {
    Schema s;
    s.AddColumn("a", DataType::kInt);
    s.AddColumn("b", DataType::kInt);
    Table t(s);
    t.AppendRowUnchecked({Value::Int(1), Value::Int(2)});
    return Result<Table>(t);
  });
  invoker_.DefineAddOne("g", 10);

  ProcessBuilder wide("wide");
  wide.Program("A", "sys", "pair", {});
  wide.Program("B", "sys", "g", {InputSource::FromActivity("A", "")});
  wide.Connect("A", "B");
  wide.Output("B");
  auto wide_def = wide.Build();
  ASSERT_TRUE(wide_def.ok()) << wide_def.status();
  auto wide_result = engine_.RunDefinition(*wide_def, {}, &invoker_);
  ASSERT_FALSE(wide_result.ok());
  EXPECT_NE(wide_result.status().message().find(kMessage), std::string::npos)
      << wide_result.status();

  ProcessBuilder dead("dead_source");
  dead.Program("A", "sys", "g", {InputSource::Constant(Value::Int(1))});
  dead.Program("D", "sys", "g", {InputSource::Constant(Value::Int(1))});
  dead.Program("B", "sys", "g", {InputSource::FromActivity("D", "v")});
  dead.Join(JoinKind::kOr);
  dead.Connect("A", "D", "1 = 0");  // D is dead-path eliminated
  dead.Connect("A", "B");
  dead.Connect("D", "B");
  dead.Output("B");
  auto dead_def = dead.Build();
  ASSERT_TRUE(dead_def.ok()) << dead_def.status();
  auto dead_result = engine_.RunDefinition(*dead_def, {}, &invoker_);
  ASSERT_FALSE(dead_result.ok());
  EXPECT_NE(dead_result.status().message().find(kMessage), std::string::npos)
      << dead_result.status();
}

TEST_F(EngineTest, RegisteredProcessRunsByName) {
  invoker_.DefineAddOne("f", 10);
  ProcessBuilder b("registered");
  b.Program("A", "sys", "f", {InputSource::Constant(Value::Int(1))});
  auto def = b.Build();
  ASSERT_TRUE(def.ok());
  ASSERT_TRUE(engine_.RegisterProcess(*def).ok());
  EXPECT_FALSE(engine_.RegisterProcess(*def).ok());  // duplicate
  auto result = engine_.Run("REGISTERED", {}, &invoker_);  // case-insensitive
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_FALSE(engine_.Run("ghost", {}, &invoker_).ok());
  EXPECT_TRUE(engine_.GetProcess("registered").ok());
}

TEST_F(EngineTest, AuditTrailRecordsLifecycle) {
  invoker_.DefineAddOne("f", 50);
  ProcessBuilder b("audited");
  b.Program("A", "sys", "f", {InputSource::Constant(Value::Int(1))});
  b.Program("B", "sys", "f", {InputSource::FromActivity("A", "v")});
  b.Connect("A", "B");
  b.Output("B");
  auto def = b.Build();
  ASSERT_TRUE(def.ok());
  auto result = engine_.RunDefinition(*def, {}, &invoker_);
  ASSERT_TRUE(result.ok());
  const auto& entries = result->audit.entries();
  ASSERT_GE(entries.size(), 6u);
  EXPECT_EQ(entries.front().event, AuditEvent::kProcessStarted);
  EXPECT_EQ(entries.back().event, AuditEvent::kProcessFinished);
  auto b_events = result->audit.ForActivity("B");
  ASSERT_EQ(b_events.size(), 2u);
  EXPECT_EQ(b_events[0].event, AuditEvent::kActivityStarted);
  EXPECT_EQ(b_events[0].time, 50);
  EXPECT_EQ(b_events[1].time, 100);
}

// --- blocks / loops ----------------------------------------------------------

class BlockTest : public EngineTest {
 protected:
  std::shared_ptr<ProcessDefinition> MakeBody(bool with_n = false) {
    invoker_.Define("item", 100, [](const std::vector<Value>& args) {
      Schema s;
      s.AddColumn("v", DataType::kInt);
      Table t(s);
      t.AppendRowUnchecked({Value::Int(args[0].AsInt() * 10)});
      return Result<Table>(t);
    });
    ProcessBuilder b("body");
    if (with_n) b.Input("n", DataType::kInt);
    b.Input("ITERATION", DataType::kInt);
    b.Program("Item", "sys", "item",
              {InputSource::FromProcessInput("ITERATION")});
    auto def = b.BuildShared();
    EXPECT_TRUE(def.ok());
    return def.ok() ? *def : nullptr;
  }

  /// Block inputs for a body built with with_n=true.
  std::vector<InputSource> NBlockInputs() {
    return {InputSource::FromProcessInput("n"),
            InputSource::Constant(Value::Int(0))};
  }
};

TEST_F(BlockTest, DoUntilLoopUnionsIterations) {
  ProcessBuilder b("loop");
  b.Input("n", DataType::kInt);
  b.Block("L", MakeBody(/*with_n=*/true), NBlockInputs(),
          "ITERATION >= n", BlockAccumulate::kUnionAll);
  auto def = b.Build();
  ASSERT_TRUE(def.ok()) << def.status();
  auto result = engine_.RunDefinition(*def, {Value::Int(4)}, &invoker_);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result->output.num_rows(), 4u);
  EXPECT_EQ(result->output.rows()[0][0].AsInt(), 10);
  EXPECT_EQ(result->output.rows()[3][0].AsInt(), 40);
}

TEST_F(BlockTest, LastIterationAccumulateKeepsFinalOutput) {
  ProcessBuilder b("loop");
  b.Input("n", DataType::kInt);
  b.Block("L", MakeBody(/*with_n=*/true), NBlockInputs(),
          "ITERATION >= n", BlockAccumulate::kLastIteration);
  auto def = b.Build();
  ASSERT_TRUE(def.ok());
  auto result = engine_.RunDefinition(*def, {Value::Int(3)}, &invoker_);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->output.num_rows(), 1u);
  EXPECT_EQ(result->output.rows()[0][0].AsInt(), 30);
}

TEST_F(BlockTest, LoopTimeScalesLinearly) {
  ProcessBuilder b("loop");
  b.Input("n", DataType::kInt);
  b.Block("L", MakeBody(/*with_n=*/true), NBlockInputs(),
          "ITERATION >= n", BlockAccumulate::kUnionAll);
  auto def = b.Build();
  ASSERT_TRUE(def.ok());
  auto t2 = engine_.RunDefinition(*def, {Value::Int(2)}, &invoker_);
  auto t8 = engine_.RunDefinition(*def, {Value::Int(8)}, &invoker_);
  ASSERT_TRUE(t2.ok() && t8.ok());
  EXPECT_EQ(t8->elapsed_us, 4 * t2->elapsed_us);
}

TEST_F(BlockTest, NoExitConditionRunsOnce) {
  ProcessBuilder b("once");
  b.Block("L", MakeBody(), {InputSource::Constant(Value::Int(7))});
  // body has one param (ITERATION), overridden per iteration
  auto def = b.Build();
  ASSERT_TRUE(def.ok());
  auto result = engine_.RunDefinition(*def, {}, &invoker_);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->output.rows()[0][0].AsInt(), 10);  // ITERATION=1 override
}

TEST_F(BlockTest, MaxIterationsGuard) {
  ProcessBuilder b("runaway");
  b.Block("L", MakeBody(), {InputSource::Constant(Value::Int(0))},
          "1 = 0", BlockAccumulate::kLastIteration, /*max_iterations=*/5);
  auto def = b.Build();
  ASSERT_TRUE(def.ok());
  auto result = engine_.RunDefinition(*def, {}, &invoker_);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("max_iterations"),
            std::string::npos);
}

TEST_F(BlockTest, LoopIterationsAudited) {
  ProcessBuilder b("loop");
  b.Input("n", DataType::kInt);
  b.Block("L", MakeBody(/*with_n=*/true), NBlockInputs(),
          "ITERATION >= n", BlockAccumulate::kUnionAll);
  auto def = b.Build();
  ASSERT_TRUE(def.ok());
  auto result = engine_.RunDefinition(*def, {Value::Int(3)}, &invoker_);
  ASSERT_TRUE(result.ok());
  int iterations = 0;
  for (const AuditEntry& e : result->audit.entries()) {
    if (e.event == AuditEvent::kLoopIteration) ++iterations;
  }
  EXPECT_EQ(iterations, 3);
}

TEST_F(EngineTest, ParallelActivitiesReallyRunConcurrently) {
  // Two activities that each block until the other has started: only
  // possible if the engine really executes them on different threads.
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  auto barrier = [&](const std::vector<Value>&) -> Result<Table> {
    std::unique_lock<std::mutex> lock(mu);
    ++started;
    cv.notify_all();
    if (!cv.wait_for(lock, std::chrono::seconds(10),
                     [&] { return started >= 2; })) {
      return Status::ExecutionError("barrier timeout");
    }
    Schema s;
    s.AddColumn("v", DataType::kInt);
    Table t(s);
    t.AppendRowUnchecked({Value::Int(1)});
    return t;
  };
  invoker_.Define("b1", 10, barrier);
  invoker_.Define("b2", 10, barrier);
  ProcessBuilder b("concurrent");
  b.Program("A", "sys", "b1", {});
  b.Program("B", "sys", "b2", {});
  b.Helper("J", "concat",
           {InputSource::FromActivity("A", ""),
            InputSource::FromActivity("B", "")});
  b.Connect("A", "J");
  b.Connect("B", "J");
  b.Output("J");
  auto def = b.Build();
  ASSERT_TRUE(def.ok());
  auto result = engine_.RunDefinition(*def, {}, &invoker_);
  ASSERT_TRUE(result.ok()) << result.status();
}

// --- One caller-runs navigator ---------------------------------------------

TEST_F(EngineTest, SequentialChainRunsOnTheCallingThread) {
  std::mutex mu;
  std::vector<std::thread::id> threads;
  auto add_one = [&](const std::vector<Value>& args) -> Result<Table> {
    {
      std::lock_guard<std::mutex> lock(mu);
      threads.push_back(std::this_thread::get_id());
    }
    Schema s;
    s.AddColumn("v", DataType::kInt);
    Table t(s);
    t.AppendRowUnchecked({Value::Int(args[0].AsInt() + 1)});
    return t;
  };
  invoker_.Define("f1", 10, add_one);
  invoker_.Define("f2", 10, add_one);
  invoker_.Define("f3", 10, add_one);
  ProcessBuilder b("chain3");
  b.Input("x", DataType::kInt);
  b.Program("A", "sys", "f1", {InputSource::FromProcessInput("x")});
  b.Program("B", "sys", "f2", {InputSource::FromActivity("A", "v")});
  b.Program("C", "sys", "f3", {InputSource::FromActivity("B", "v")});
  b.Connect("A", "B");
  b.Connect("B", "C");
  b.Output("C");
  auto def = b.Build();
  ASSERT_TRUE(def.ok());
  auto result = engine_.RunDefinition(*def, {Value::Int(0)}, &invoker_);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->output.rows()[0][0].AsInt(), 3);
  ASSERT_EQ(threads.size(), 3u);
  for (const std::thread::id& id : threads) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST_F(EngineTest, ParallelActivitiesInsideABlockRunConcurrently) {
  // The barrier pair of ParallelActivitiesReallyRunConcurrently, moved into
  // a block's sub-process: block bodies fork onto the pool too.
  std::mutex mu;
  std::condition_variable cv;
  int started = 0;
  auto barrier = [&](const std::vector<Value>&) -> Result<Table> {
    std::unique_lock<std::mutex> lock(mu);
    ++started;
    cv.notify_all();
    if (!cv.wait_for(lock, std::chrono::seconds(10),
                     [&] { return started >= 2; })) {
      return Status::ExecutionError("barrier timeout");
    }
    Schema s;
    s.AddColumn("v", DataType::kInt);
    Table t(s);
    t.AppendRowUnchecked({Value::Int(1)});
    return t;
  };
  invoker_.Define("b1", 10, barrier);
  invoker_.Define("b2", 10, barrier);
  ProcessBuilder body("concurrent_body");
  body.Program("A", "sys", "b1", {});
  body.Program("B", "sys", "b2", {});
  body.Helper("J", "concat",
              {InputSource::FromActivity("A", ""),
               InputSource::FromActivity("B", "")});
  body.Connect("A", "J");
  body.Connect("B", "J");
  body.Output("J");
  auto sub = body.BuildShared();
  ASSERT_TRUE(sub.ok()) << sub.status();
  ProcessBuilder b("concurrent_block");
  b.Block("L", *sub, {});
  auto def = b.Build();
  ASSERT_TRUE(def.ok()) << def.status();
  auto result = engine_.RunDefinition(*def, {}, &invoker_);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->output.schema().num_columns(), 2u);
}

TEST_F(EngineTest, HelperReadsItsInputWhileSiblingsAddSlots) {
  // H borrows L's large table while ten sibling programs finish on the pool
  // and add their slots to the container; the table must neither move nor
  // die under the helper.
  constexpr int kRows = 20000;
  constexpr int kSiblings = 10;
  invoker_.Define("big", 10, [](const std::vector<Value>&) {
    Schema s;
    s.AddColumn("v", DataType::kInt);
    Table t(s);
    for (int r = 0; r < kRows; ++r) t.AppendRowUnchecked({Value::Int(r)});
    return Result<Table>(std::move(t));
  });
  std::atomic<int> finished{0};
  invoker_.Define("sibling", 10, [&finished](const std::vector<Value>& args) {
    Schema s;
    s.AddColumn("v", DataType::kInt);
    Table t(s);
    t.AppendRowUnchecked({args[0]});
    finished.fetch_add(1);
    return Result<Table>(std::move(t));
  });
  auto sum = [](const Table& t) {
    int64_t total = 0;
    for (const Row& r : t.rows()) total += r[0].AsInt();
    return total;
  };
  ASSERT_TRUE(
      engine_
          .RegisterHelper(
              "reading_sum",
              [&finished, sum](const std::vector<const Table*>& in)
                  -> Result<Table> {
                const Table& big = *in[0];
                const Row* rows = big.rows().data();
                int64_t total = 0;
                const auto deadline =
                    std::chrono::steady_clock::now() + std::chrono::seconds(10);
                do {
                  total = sum(big);
                } while (finished.load() < kSiblings &&
                         std::chrono::steady_clock::now() < deadline);
                // The last slots are set just after their programs return.
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
                total = sum(big);
                if (big.rows().data() != rows) {
                  return Status::Internal("the borrowed table moved");
                }
                Schema s;
                s.AddColumn("total", DataType::kBigInt);
                Table out(s);
                out.AppendRowUnchecked({Value::BigInt(total)});
                return out;
              })
          .ok());
  ProcessBuilder b("siblings");
  b.Program("L", "sys", "big", {});
  b.Helper("H", "reading_sum", {InputSource::FromActivity("L", "")});
  b.Connect("L", "H");
  for (int i = 0; i < kSiblings; ++i) {
    const std::string name = "S" + std::to_string(i);
    b.Program(name, "sys", "sibling", {InputSource::Constant(Value::Int(i))});
    b.Connect("L", name);
  }
  b.Output("H");
  auto def = b.Build();
  ASSERT_TRUE(def.ok()) << def.status();
  auto result = engine_.RunDefinition(*def, {}, &invoker_);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(finished.load(), kSiblings);
  EXPECT_EQ(result->output.rows()[0][0].AsBigInt(),
            int64_t{kRows} * (kRows - 1) / 2);
}

TEST_F(EngineTest, NestedForksFromManyCallersNeverDeadlock) {
  // More navigating threads than pool workers, each forking three do-until
  // blocks whose bodies fork again: only terminates if no navigating thread
  // waits for a pool task that has not started.
  invoker_.Define("plus", 10, [](const std::vector<Value>& args) {
    Schema s;
    s.AddColumn("v", DataType::kInt);
    Table t(s);
    t.AppendRowUnchecked({Value::Int(args[0].AsInt() + args[1].AsInt())});
    return Result<Table>(std::move(t));
  });
  const std::vector<InputSource> plus_args = {
      InputSource::FromProcessInput("x"),
      InputSource::FromProcessInput("ITERATION")};
  ProcessBuilder body("fork_body");
  body.Input("x", DataType::kInt);
  body.Input("ITERATION", DataType::kInt);
  body.Program("P", "sys", "plus", plus_args);
  body.Program("Q", "sys", "plus", plus_args);
  body.Helper("J", "union_all",
              {InputSource::FromActivity("P", ""),
               InputSource::FromActivity("Q", "")});
  body.Connect("P", "J");
  body.Connect("Q", "J");
  body.Output("J");
  auto sub = body.BuildShared();
  ASSERT_TRUE(sub.ok()) << sub.status();
  const std::vector<InputSource> block_args = {
      InputSource::FromProcessInput("x"), InputSource::Constant(Value::Int(0))};
  ProcessBuilder b("nested_forks");
  b.Input("x", DataType::kInt);
  std::vector<InputSource> blocks;
  for (const char* name : {"L1", "L2", "L3"}) {
    b.Block(name, *sub, block_args, "ITERATION >= 3");
    b.Connect(name, "U");
    blocks.push_back(InputSource::FromActivity(name, ""));
  }
  b.Helper("U", "union_all", blocks);
  b.Output("U");
  auto def = b.Build();
  ASSERT_TRUE(def.ok()) << def.status();

  constexpr int kClients = 16;
  constexpr int kRuns = 30;
  std::atomic<int> wrong{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRuns; ++r) {
        const int x = c * 1000 + r;
        auto result = engine_.RunDefinition(*def, {Value::Int(x)}, &invoker_);
        bool right = result.ok() && result->output.num_rows() == 6;
        for (size_t i = 0; right && i < 6; ++i) {
          right = result->output.rows()[i][0].AsInt() == x + 3;
        }
        if (!right) ++wrong;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST_F(EngineTest, BranchWaitingOnItsSiblingsGetsThemHandedOff) {
  // A waits until its fork siblings B and C have finished. The navigating
  // thread takes A first, so B and C run only if the engine hands them to
  // the pool; a lost offer fails A after its budget instead of hanging.
  auto one_row = [] {
    Schema s;
    s.AddColumn("v", DataType::kInt);
    Table t(s);
    t.AppendRowUnchecked({Value::Int(1)});
    return t;
  };
  std::atomic<int> finished{0};
  invoker_.Define("waits", 10, [&](const std::vector<Value>&) -> Result<Table> {
    const auto budget =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (finished.load() < 2) {
      if (std::chrono::steady_clock::now() > budget) {
        return Status::ExecutionError("the siblings never ran");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return one_row();
  });
  invoker_.Define("quick", 10, [&](const std::vector<Value>&) -> Result<Table> {
    Table t = one_row();
    finished.fetch_add(1);
    return t;
  });
  ProcessBuilder b("waits_on_siblings");
  std::vector<InputSource> branches;
  for (const char* name : {"A", "B", "C"}) {
    b.Program(name, "sys", name[0] == 'A' ? "waits" : "quick", {});
    b.Connect(name, "J");
    branches.push_back(InputSource::FromActivity(name, ""));
  }
  b.Helper("J", "union_all", branches);
  b.Output("J");
  auto def = b.Build();
  ASSERT_TRUE(def.ok()) << def.status();
  auto result = engine_.RunDefinition(*def, {}, &invoker_);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->output.num_rows(), 3u);
}

TEST_F(EngineTest, ShortForkStaysOnTheCallingThread) {
  // A fork of instant programs never waits out the hand-off deadline, so
  // both branches run on the thread that called Run. Only a host stall past
  // the deadline may hand a branch to the pool.
  obs::MetricsRegistry metrics;
  EngineOptions options;
  options.metrics = &metrics;
  Engine engine(options);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  invoker_.Define("instant", 10, [&](const std::vector<Value>&) {
    if (std::this_thread::get_id() != caller) off_thread.fetch_add(1);
    Schema s;
    s.AddColumn("v", DataType::kInt);
    Table t(s);
    t.AppendRowUnchecked({Value::Int(1)});
    return Result<Table>(std::move(t));
  });
  ProcessBuilder b("short_fork");
  b.Program("P", "sys", "instant", {});
  b.Program("Q", "sys", "instant", {});
  b.Helper("J", "union_all",
           {InputSource::FromActivity("P", ""),
            InputSource::FromActivity("Q", "")});
  b.Connect("P", "J");
  b.Connect("Q", "J");
  b.Output("J");
  auto def = b.Build();
  ASSERT_TRUE(def.ok()) << def.status();
  constexpr int kRuns = 200;
  for (int r = 0; r < kRuns; ++r) {
    auto result = engine.RunDefinition(*def, {}, &invoker_);
    ASSERT_TRUE(result.ok()) << result.status();
    ASSERT_EQ(result->output.num_rows(), 2u);
  }
  const uint64_t handoffs = metrics.counter("wfms.handoffs");
  EXPECT_LE(handoffs, uint64_t{kRuns / 50});
  EXPECT_LE(static_cast<uint64_t>(off_thread.load()), handoffs);
}

// --- Forward recovery -------------------------------------------------------

/// Counts audit entries of `event` in `trail`.
int CountEvents(const AuditTrail& trail, AuditEvent event) {
  int n = 0;
  for (const AuditEntry& e : trail.entries()) {
    if (e.event == event) ++n;
  }
  return n;
}

class RecoveryTest : public EngineTest {
 protected:
  /// Registers chain A(100) -> B(200) -> C(300) whose middle activity fails
  /// `fail_b_times` times before succeeding.
  void RegisterChain(int fail_b_times) {
    invoker_.DefineAddOne("f_a", 100);
    auto remaining = std::make_shared<int>(fail_b_times);
    invoker_.Define("f_b", 200, [remaining](const std::vector<Value>& args) {
      if (*remaining > 0) {
        --*remaining;
        return Result<Table>(Status::Unavailable("flaky backend"));
      }
      Schema s;
      s.AddColumn("v", DataType::kInt);
      Table t(s);
      t.AppendRowUnchecked({Value::Int(args[0].AsInt() + 1)});
      return Result<Table>(std::move(t));
    });
    invoker_.DefineAddOne("f_c", 300);
    ProcessBuilder b("chain");
    b.Input("x", DataType::kInt);
    b.Program("A", "sys", "f_a", {InputSource::FromProcessInput("x")});
    b.Program("B", "sys", "f_b", {InputSource::FromActivity("A", "v")});
    b.Program("C", "sys", "f_c", {InputSource::FromActivity("B", "v")});
    b.Connect("A", "B");
    b.Connect("B", "C");
    b.Output("C");
    auto def = b.Build();
    ASSERT_TRUE(def.ok());
    ASSERT_TRUE(engine_.RegisterProcess(*def).ok());
  }

  /// Program-activity invocations so far, by function name.
  int Calls(const std::string& fn) {
    int n = 0;
    for (const auto& [system, function] : invoker_.calls()) {
      if (function == fn) ++n;
    }
    return n;
  }
};

TEST_F(RecoveryTest, FailurePersistsCompletedActivitiesInCheckpoint) {
  RegisterChain(/*fail_b_times=*/1);
  InstanceCheckpoint ckpt;
  auto failed =
      engine_.RunRecoverable("chain", {Value::Int(5)}, &invoker_, &ckpt);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  ASSERT_TRUE(ckpt.valid);
  EXPECT_EQ(ckpt.process, "chain");
  ASSERT_EQ(ckpt.completed.size(), 1u);
  EXPECT_EQ(ckpt.completed[0].activity, "A");
  EXPECT_EQ(ckpt.completed[0].end_us, 100);
  EXPECT_EQ(ckpt.completed[0].output->rows()[0][0].AsInt(), 6);
  EXPECT_EQ(ckpt.failed_at_us, 100);
  EXPECT_EQ(ckpt.attempt_work.Of(steps::kProcessActivities), 100)
      << "the failed activity charges no work";
  EXPECT_EQ(CountEvents(ckpt.audit, AuditEvent::kActivityCheckpointed), 1);
  EXPECT_EQ(CountEvents(ckpt.audit, AuditEvent::kActivityFailed), 1);
}

TEST_F(RecoveryTest, ResumeReExecutesOnlyFailedAndUnrunActivities) {
  RegisterChain(/*fail_b_times=*/1);
  InstanceCheckpoint ckpt;
  ASSERT_FALSE(
      engine_.RunRecoverable("chain", {Value::Int(5)}, &invoker_, &ckpt).ok());
  EXPECT_EQ(Calls("f_a"), 1);
  EXPECT_EQ(Calls("f_b"), 1);
  EXPECT_EQ(Calls("f_c"), 0);

  auto resumed = engine_.ResumeFrom(ckpt, &invoker_);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(resumed->output.rows()[0][0].AsInt(), 8);
  // A was restored from the checkpoint, not re-executed.
  EXPECT_EQ(Calls("f_a"), 1);
  EXPECT_EQ(Calls("f_b"), 2);
  EXPECT_EQ(Calls("f_c"), 1);
  // elapsed_us spans the whole instance timeline...
  EXPECT_EQ(resumed->elapsed_us, 600);
  // ...while the breakdown holds only the new work (B + C, not A).
  EXPECT_EQ(resumed->breakdown.Of(steps::kProcessActivities), 500);
  EXPECT_EQ(CountEvents(resumed->audit, AuditEvent::kProcessResumed), 1);
  // Success invalidates the checkpoint.
  EXPECT_FALSE(ckpt.valid);
}

TEST_F(RecoveryTest, SiblingBranchesRunToCompletionAndAreCheckpointed) {
  // Deterministic failure semantics: a failing activity does not cancel
  // independent branches, so the checkpoint content is the same regardless
  // of thread timing — the slow sibling is persisted, the failed branch and
  // the join are not.
  invoker_.DefineAddOne("slow_ok", 1000, "a");
  auto remaining = std::make_shared<int>(1);
  invoker_.Define("fail_once", 10, [remaining](const std::vector<Value>&) {
    if (*remaining > 0) {
      --*remaining;
      return Result<Table>(Status::Unavailable("flaky"));
    }
    Schema s;
    s.AddColumn("b", DataType::kInt);
    Table t(s);
    t.AppendRowUnchecked({Value::Int(7)});
    return Result<Table>(std::move(t));
  });
  ProcessBuilder b("fork");
  b.Input("x", DataType::kInt);
  b.Program("S", "sys", "slow_ok", {InputSource::FromProcessInput("x")});
  b.Program("F", "sys", "fail_once", {InputSource::FromProcessInput("x")});
  b.Helper("J", "concat",
           {InputSource::FromActivity("S", ""),
            InputSource::FromActivity("F", "")});
  b.Connect("S", "J");
  b.Connect("F", "J");
  b.Output("J");
  auto def = b.Build();
  ASSERT_TRUE(def.ok());
  ASSERT_TRUE(engine_.RegisterProcess(*def).ok());

  InstanceCheckpoint ckpt;
  ASSERT_FALSE(
      engine_.RunRecoverable("fork", {Value::Int(1)}, &invoker_, &ckpt).ok());
  ASSERT_TRUE(ckpt.valid);
  ASSERT_EQ(ckpt.completed.size(), 1u);
  EXPECT_EQ(ckpt.completed[0].activity, "S");

  auto resumed = engine_.ResumeFrom(ckpt, &invoker_);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  EXPECT_EQ(Calls("slow_ok"), 1) << "the slow sibling must not re-execute";
  EXPECT_EQ(Calls("fail_once"), 2);
  EXPECT_EQ(resumed->output.schema().num_columns(), 2u);
}

TEST_F(RecoveryTest, ExhaustedRetriesKeepCheckpointUsable) {
  // Two consecutive failures: each failed attempt refreshes the checkpoint
  // and the third run completes from it.
  RegisterChain(/*fail_b_times=*/2);
  InstanceCheckpoint ckpt;
  ASSERT_FALSE(
      engine_.RunRecoverable("chain", {Value::Int(5)}, &invoker_, &ckpt).ok());
  ASSERT_FALSE(engine_.ResumeFrom(ckpt, &invoker_).ok());
  ASSERT_TRUE(ckpt.valid);
  auto ok = engine_.ResumeFrom(ckpt, &invoker_);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(Calls("f_a"), 1);
  EXPECT_EQ(Calls("f_b"), 3);
}

TEST_F(RecoveryTest, GuardsRejectBadCheckpoints) {
  RegisterChain(/*fail_b_times=*/0);
  auto null_ckpt =
      engine_.RunRecoverable("chain", {Value::Int(5)}, &invoker_, nullptr);
  EXPECT_FALSE(null_ckpt.ok());

  InstanceCheckpoint ckpt;
  auto not_failed = engine_.ResumeFrom(ckpt, &invoker_);
  EXPECT_FALSE(not_failed.ok());

  ckpt.valid = true;
  ckpt.process = "some_other_process";
  auto mismatch =
      engine_.RunRecoverable("chain", {Value::Int(5)}, &invoker_, &ckpt);
  EXPECT_FALSE(mismatch.ok());

  InstanceCheckpoint no_output;
  no_output.valid = true;
  no_output.process = "chain";
  no_output.args = {Value::Int(5)};
  no_output.completed.push_back({"A", nullptr, 100});
  auto null_handle = engine_.ResumeFrom(no_output, &invoker_);
  ASSERT_FALSE(null_handle.ok());
  EXPECT_EQ(null_handle.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(RecoveryTest, CheckpointAndHelpersShareTheProducersTables) {
  // A and B feed two joins: J1 runs before C fails, J2 only after the
  // resume. Every join input must be the producer's own checkpointed table.
  auto keyed = [](const std::string& col, int rows, int keys) {
    Schema s;
    s.AddColumn("k", DataType::kInt);
    s.AddColumn(col, DataType::kInt);
    Table t(s);
    for (int r = 0; r < rows; ++r) {
      t.AppendRowUnchecked({Value::Int(r % keys), Value::Int(r)});
    }
    return t;
  };
  invoker_.Define("rows_a", 100, [keyed](const std::vector<Value>&) {
    return Result<Table>(keyed("a", 3, 3));
  });
  invoker_.Define("rows_b", 100, [keyed](const std::vector<Value>&) {
    return Result<Table>(keyed("b", 40, 5));
  });
  auto remaining = std::make_shared<int>(1);
  invoker_.Define("fail_once", 10, [remaining](const std::vector<Value>&) {
    if (*remaining > 0) {
      --*remaining;
      return Result<Table>(Status::Unavailable("flaky"));
    }
    Schema s;
    s.AddColumn("c", DataType::kInt);
    Table t(s);
    t.AppendRowUnchecked({Value::Int(1)});
    return Result<Table>(std::move(t));
  });
  std::mutex mu;
  std::vector<std::pair<const Row*, const Row*>> seen;
  HelperFn join = MakeJoinHelper("k", "k");
  ASSERT_TRUE(engine_
                  .RegisterHelper(
                      "recording_join",
                      [&mu, &seen, join](const std::vector<const Table*>& in)
                          -> Result<Table> {
                        {
                          std::lock_guard<std::mutex> lock(mu);
                          seen.emplace_back(in[0]->rows().data(),
                                            in[1]->rows().data());
                        }
                        return join(in);
                      })
                  .ok());
  ProcessBuilder b("shared");
  b.Program("A", "sys", "rows_a", {});
  b.Program("B", "sys", "rows_b", {});
  b.Helper("J1", "recording_join",
           {InputSource::FromActivity("A", ""),
            InputSource::FromActivity("B", "")});
  b.Program("C", "sys", "fail_once", {InputSource::Constant(Value::Int(0))});
  b.Helper("J2", "recording_join",
           {InputSource::FromActivity("A", ""),
            InputSource::FromActivity("B", "")});
  b.Connect("A", "J1");
  b.Connect("B", "J1");
  b.Connect("J1", "C");
  b.Connect("C", "J2");
  b.Output("J2");
  auto def = b.Build();
  ASSERT_TRUE(def.ok()) << def.status();
  ASSERT_TRUE(engine_.RegisterProcess(*def).ok());

  InstanceCheckpoint ckpt;
  ASSERT_FALSE(engine_.RunRecoverable("shared", {}, &invoker_, &ckpt).ok());
  ASSERT_TRUE(ckpt.valid);
  std::map<std::string, std::shared_ptr<const Table>> persisted;
  for (const InstanceCheckpoint::CompletedActivity& c : ckpt.completed) {
    persisted[c.activity] = c.output;
  }
  ASSERT_EQ(persisted.size(), 3u);  // A, B and J1
  ASSERT_NE(persisted["A"], nullptr);
  ASSERT_NE(persisted["B"], nullptr);
  const Row* a_rows = persisted["A"]->rows().data();
  const Row* b_rows = persisted["B"]->rows().data();
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].first, a_rows) << "J1 read a copy of A's table";
  EXPECT_EQ(seen[0].second, b_rows) << "J1 read a copy of B's table";

  auto resumed = engine_.ResumeFrom(ckpt, &invoker_);
  ASSERT_TRUE(resumed.ok()) << resumed.status();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[1].first, a_rows) << "the resume re-seeded a copy of A";
  EXPECT_EQ(seen[1].second, b_rows) << "the resume re-seeded a copy of B";

  InstanceCheckpoint fresh;
  auto unfailed = engine_.RunRecoverable("shared", {}, &invoker_, &fresh);
  ASSERT_TRUE(unfailed.ok()) << unfailed.status();
  EXPECT_EQ(resumed->output, unfailed->output);
  EXPECT_EQ(resumed->output.num_rows(), 24u);
}

TEST_F(RecoveryTest, SuccessfulRunLeavesCheckpointInvalid) {
  RegisterChain(/*fail_b_times=*/0);
  InstanceCheckpoint ckpt;
  auto ok = engine_.RunRecoverable("chain", {Value::Int(5)}, &invoker_, &ckpt);
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_FALSE(ckpt.valid);
  EXPECT_TRUE(ckpt.completed.empty());
  EXPECT_EQ(ok->output.rows()[0][0].AsInt(), 8);
  EXPECT_EQ(ok->elapsed_us, 600);
}

}  // namespace
}  // namespace fedflow::wfms
