/**
 * @file
 * Host-side profiler tests: nested-scope tree shape and counters,
 * cross-thread merge determinism (1 vs 4 sweep worker threads must
 * render byte-identical canonical trees), the worker-pool path
 * adopter, memory-sample monotonicity, and the schema-v4 "host"
 * blocks emitted through BenchContext.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/json_report.hh"
#include "harness/sweep.hh"
#include "obs/host_prof.hh"
#include "obs/stats_registry.hh"

namespace csim {
namespace {

/** Fresh profiler state; every test assumes a clean slate. */
class HostProfTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        if (!HostProf::compiledIn())
            GTEST_SKIP() << "built with CSIM_ENABLE_HOST_PROF=OFF";
        HostProf::reset();
    }

    void
    TearDown() override
    {
        HostProf::reset();
    }
};

SweepSpec
tinySpec()
{
    SweepSpec spec;
    spec.cfg.instructions = 2000;
    spec.cfg.seeds = {1, 2};
    spec.crossTiming({"gzip", "gcc"},
                     {MachineConfig::monolithic(),
                      MachineConfig::clustered(4)},
                     {PolicyKind::Focused});
    return spec;
}

TEST_F(HostProfTest, NestedScopesBuildATree)
{
    {
        HOST_PROF_SCOPE("outer");
        {
            HOST_PROF_SCOPE("inner");
            HOST_PROF_INSTRUCTIONS(100);
        }
        {
            HOST_PROF_SCOPE("inner");
            HOST_PROF_INSTRUCTIONS(50);
        }
        HOST_PROF_SCOPE("alpha"); // sibling of inner, sorts first
    }

    const HostProfNode root = HostProf::snapshot();
    EXPECT_EQ(root.name, "host");
    ASSERT_EQ(root.children.size(), 1u);

    const HostProfNode &outer = root.children[0];
    EXPECT_EQ(outer.name, "outer");
    EXPECT_EQ(outer.calls, 1u);
    ASSERT_EQ(outer.children.size(), 2u);
    EXPECT_EQ(outer.children[0].name, "alpha"); // sorted by name
    EXPECT_EQ(outer.children[1].name, "inner");

    const HostProfNode &inner = outer.children[1];
    EXPECT_EQ(inner.calls, 2u); // same name re-entered, one node
    EXPECT_EQ(inner.instructions, 150u);
    EXPECT_TRUE(inner.children.empty());

    // Child spans nest inside the parent's span.
    EXPECT_GE(outer.ns, outer.childNs());
    EXPECT_EQ(root.ns, root.childNs());
    EXPECT_EQ(root.totalInstructions(), 150u);
    EXPECT_EQ(outer.find("inner"), &inner);
    EXPECT_EQ(outer.find("nope"), nullptr);
}

TEST_F(HostProfTest, CanonicalRenderingListsPaths)
{
    {
        HOST_PROF_SCOPE("a");
        HOST_PROF_SCOPE("b");
        HOST_PROF_INSTRUCTIONS(7);
    }
    const std::string canon = hostProfCanonical(HostProf::snapshot());
    EXPECT_EQ(canon,
              "host calls=0 instructions=0\n"
              "host/a calls=1 instructions=0\n"
              "host/a/b calls=1 instructions=7\n");
}

TEST_F(HostProfTest, WorkerThreadsMergeUnderAdoptedPath)
{
    std::vector<std::string> path;
    {
        HOST_PROF_SCOPE("spawn");
        path = HostProf::currentPath();
        ASSERT_EQ(path, std::vector<std::string>{"spawn"});

        std::thread worker([&path] {
            HostProfPathAdopter adopt(path);
            HOST_PROF_SCOPE("job");
            HOST_PROF_INSTRUCTIONS(42);
        });
        worker.join();
    }

    const HostProfNode root = HostProf::snapshot();
    const HostProfNode *spawn = root.find("spawn");
    ASSERT_NE(spawn, nullptr);
    // The worker's scope landed under the spawning thread's path even
    // though it ran on another thread's private tree.
    const HostProfNode *job = spawn->find("job");
    ASSERT_NE(job, nullptr);
    EXPECT_EQ(job->calls, 1u);
    EXPECT_EQ(job->instructions, 42u);
    // Adopted nodes are structural on the worker: the spawning
    // thread's own call is the only one recorded.
    EXPECT_EQ(spawn->calls, 1u);
    // Concurrent children can exceed the parent's span; the merged
    // tree must still satisfy the child-sum invariant by lifting.
    EXPECT_GE(spawn->ns, spawn->childNs());
}

TEST_F(HostProfTest, TimerTreeIdenticalAcrossSweepThreadCounts)
{
    const SweepSpec spec = tinySpec();

    SweepRunner one(1);
    (void)one.run(spec);
    const std::string canon_one =
        hostProfCanonical(HostProf::snapshot());

    HostProf::reset();
    SweepRunner four(4);
    (void)four.run(spec);
    const std::string canon_four =
        hostProfCanonical(HostProf::snapshot());

    // The acceptance criterion: identical duration-free trees — same
    // scopes, same call counts, same attributed instructions —
    // regardless of worker count.
    EXPECT_EQ(canon_one, canon_four);
    EXPECT_NE(canon_one.find("sweep.run/sweep.jobs/sim.run"),
              std::string::npos);
    EXPECT_NE(canon_one.find("traceCache.build/trace.build"),
              std::string::npos);
}

TEST_F(HostProfTest, ChildSumInvariantHoldsEverywhereAfterSweep)
{
    SweepRunner four(4);
    (void)four.run(tinySpec());
    const HostProfNode root = HostProf::snapshot();

    std::vector<const HostProfNode *> stack{&root};
    std::size_t visited = 0;
    while (!stack.empty()) {
        const HostProfNode *n = stack.back();
        stack.pop_back();
        ++visited;
        EXPECT_GE(n->ns, n->childNs()) << "at scope " << n->name;
        for (const HostProfNode &c : n->children)
            stack.push_back(&c);
    }
    EXPECT_GT(visited, 5u);
}

TEST_F(HostProfTest, ResetDropsAccumulatedTime)
{
    {
        HOST_PROF_SCOPE("gone");
    }
    HostProf::reset();
    EXPECT_TRUE(HostProf::snapshot().children.empty());
}

TEST(HostMemory, PeakRssIsMonotoneAndHighWaterSticks)
{
    const HostMemoryStats before = sampleHostMemory();
    EXPECT_GT(before.peakRssBytes, 0u);

    // Touch a real allocation so the sample has something to see.
    std::vector<char> block(8 * 1024 * 1024, 1);
    const HostMemoryStats during = sampleHostMemory();

    EXPECT_GE(during.peakRssBytes, before.peakRssBytes);
    EXPECT_GE(during.heapHighWaterBytes, during.heapBytes);
    EXPECT_GE(during.heapHighWaterBytes, before.heapHighWaterBytes);

    block.clear();
    block.shrink_to_fit();
    const HostMemoryStats after = sampleHostMemory();
    // Peak RSS never decreases; the heap high-water survives frees.
    EXPECT_GE(after.peakRssBytes, during.peakRssBytes);
    EXPECT_GE(after.heapHighWaterBytes, during.heapHighWaterBytes);
}

TEST(HostProfJson, SchemaV5RoundTripCarriesHostBlocks)
{
    if (!HostProf::compiledIn())
        GTEST_SKIP() << "built with CSIM_ENABLE_HOST_PROF=OFF";
    HostProf::reset();
    {
        HOST_PROF_SCOPE("sim.run");
        HOST_PROF_INSTRUCTIONS(5000);
    }

    StatsRegistry reg;
    reg.addCounter("sim.cycles").inc(10);

    const std::string path = "test_host_prof_report.json";
    {
        const char *argv[] = {"bench", "--json", path.c_str()};
        BenchContext ctx("test_host_prof_bench", 3,
                         const_cast<char **>(argv));
        ctx.addRunStats("cell", reg.snapshot());
        RunHostMetrics host;
        host.wallSeconds = 0.25;
        host.instructions = 5000;
        host.peakRssBytes = 1 << 20;
        ctx.addRunHost("cell", host);
        EXPECT_EQ(ctx.finish(), 0);
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string json = ss.str();
    std::remove(path.c_str());

    EXPECT_NE(json.find("\"schemaVersion\":7"), std::string::npos);
    // Per-run host block with the derived MIPS (5000 insts / 0.25 s
    // = 0.02 MIPS).
    EXPECT_NE(json.find("\"host\":{\"wallSeconds\":0.25,"
                        "\"instructions\":5000,\"hostMips\":0.02,"
                        "\"peakRssBytes\":1048576}"),
              std::string::npos);
    // Process-wide host block with the timer tree.
    EXPECT_NE(json.find("\"timerTree\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"sim.run\""), std::string::npos);
    EXPECT_NE(json.find("\"heapHighWaterBytes\""), std::string::npos);
    HostProf::reset();
}

TEST(HostProfJsonDeathTest, UnknownRunLabelIsFatal)
{
    const char *argv[] = {"bench"};
    BenchContext ctx("bench", 1, const_cast<char **>(argv));
    RunHostMetrics host;
    host.wallSeconds = 1.0;
    EXPECT_DEATH(ctx.addRunHost("no-such-run", host), "no-such-run");
}

} // anonymous namespace
} // namespace csim
