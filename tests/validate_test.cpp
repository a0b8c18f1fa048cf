// The validators are the library's ground truth, so they get adversarial
// tests: hand-built schedules with exactly one rule violated each, and
// checks that the error messages point at the right rule.
#include <gtest/gtest.h>

#include <string>

#include "core/heft.hpp"
#include "graph/task_graph.hpp"
#include "platform/platform.hpp"
#include "sched/validate.hpp"
#include "testbeds/testbeds.hpp"

namespace oneport {
namespace {

/// Two-task chain u -> v, data 2; two unit-speed processors, link 1.
struct ChainFixture {
  ChainFixture() {
    graph.add_task(1.0);
    graph.add_task(1.0);
    graph.add_edge(0, 1, 2.0);
    graph.finalize();
  }
  TaskGraph graph;
  Platform platform{{1.0, 1.0}, 1.0};
};

TEST(ValidateMacro, AcceptsSameProcChain) {
  ChainFixture f;
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  s.place_task(1, 0, 1.0, 2.0);
  EXPECT_TRUE(validate_macro_dataflow(s, f.graph, f.platform).ok());
  EXPECT_TRUE(validate_one_port(s, f.graph, f.platform).ok());
}

TEST(ValidateMacro, AcceptsCrossProcWithMessage) {
  ChainFixture f;
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  s.add_comm({0, 1, 0, 1, 1.0, 3.0});
  s.place_task(1, 1, 3.0, 4.0);
  EXPECT_TRUE(validate_macro_dataflow(s, f.graph, f.platform).ok());
  EXPECT_TRUE(validate_one_port(s, f.graph, f.platform).ok());
}

TEST(ValidateMacro, MissingPlacement) {
  ChainFixture f;
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  const ValidationResult r = validate_macro_dataflow(s, f.graph, f.platform);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("M1"), std::string::npos);
}

TEST(ValidateMacro, WrongDuration) {
  ChainFixture f;
  Schedule s(2);
  s.place_task(0, 0, 0.0, 2.5);  // w*t = 1
  s.place_task(1, 0, 2.5, 3.5);
  const ValidationResult r = validate_macro_dataflow(s, f.graph, f.platform);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("M2"), std::string::npos);
}

TEST(ValidateMacro, ComputeOverlap) {
  TaskGraph g;
  g.add_task(2.0);
  g.add_task(2.0);
  g.finalize();
  const Platform p({1.0}, 1.0);
  Schedule s(2);
  s.place_task(0, 0, 0.0, 2.0);
  s.place_task(1, 0, 1.0, 3.0);
  const ValidationResult r = validate_macro_dataflow(s, g, p);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("M3"), std::string::npos);
}

TEST(ValidateMacro, PrecedenceViolationSameProc) {
  ChainFixture f;
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  s.place_task(1, 0, 0.5, 1.5);  // starts before parent ends
  const ValidationResult r = validate_macro_dataflow(s, f.graph, f.platform);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("M3"), std::string::npos);  // also overlaps
}

TEST(ValidateMacro, MissingMessage) {
  ChainFixture f;
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  s.place_task(1, 1, 3.0, 4.0);
  const ValidationResult r = validate_macro_dataflow(s, f.graph, f.platform);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("found none"), std::string::npos);
}

TEST(ValidateMacro, MessageTooShort) {
  ChainFixture f;
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  s.add_comm({0, 1, 0, 1, 1.0, 2.0});  // needs duration 2
  s.place_task(1, 1, 2.0, 3.0);
  const ValidationResult r = validate_macro_dataflow(s, f.graph, f.platform);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("duration"), std::string::npos);
}

TEST(ValidateMacro, MessageBeforeSourceFinishes) {
  ChainFixture f;
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  s.add_comm({0, 1, 0, 1, 0.5, 2.5});
  s.place_task(1, 1, 2.5, 3.5);
  const ValidationResult r = validate_macro_dataflow(s, f.graph, f.platform);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("before source finishes"), std::string::npos);
}

TEST(ValidateMacro, SuccessorBeforeMessageArrives) {
  ChainFixture f;
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  s.add_comm({0, 1, 0, 1, 1.0, 3.0});
  s.place_task(1, 1, 2.0, 3.0);
  const ValidationResult r = validate_macro_dataflow(s, f.graph, f.platform);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("before the last hop arrives"), std::string::npos);
}

TEST(ValidateMacro, SpuriousMessages) {
  ChainFixture f;
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  s.place_task(1, 0, 1.0, 2.0);
  s.add_comm({0, 1, 0, 1, 1.0, 3.0});  // same-proc edge with a message
  const ValidationResult r = validate_macro_dataflow(s, f.graph, f.platform);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("M5"), std::string::npos);
}

TEST(ValidateMacro, MessageOnWrongProcessors) {
  TaskGraph g;
  g.add_task(1.0);
  g.add_task(1.0);
  g.add_edge(0, 1, 1.0);
  g.finalize();
  const Platform p({1.0, 1.0, 1.0}, 1.0);
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  s.add_comm({0, 1, 2, 1, 1.0, 2.0});  // claims to leave from P2
  s.place_task(1, 1, 2.0, 3.0);
  const ValidationResult r = validate_macro_dataflow(s, g, p);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("hop"), std::string::npos);
}

TEST(ValidateMacro, MessageToUnknownProcessorReportsInsteadOfThrowing) {
  // Schedule::add_comm accepts any non-negative processor id; the hop has
  // no link to price it by, so it must come back as a violation.
  ChainFixture f;
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  s.add_comm({0, 1, 0, 7, 1.0, 3.0});
  s.place_task(1, 1, 3.0, 4.0);
  for (const bool one_port : {false, true}) {
    ValidationResult r;
    ASSERT_NO_THROW(r = one_port ? validate_one_port(s, f.graph, f.platform)
                                 : validate_macro_dataflow(s, f.graph,
                                                           f.platform));
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.message().find("M5: edge 0->1 hop P0->P7: invalid processor"),
              std::string::npos)
        << r.message();
    EXPECT_EQ(r.message().find("duration"), std::string::npos)
        << r.message();
  }
}

TEST(ValidateMacro, SpuriousRunBetweenValidRunsIsReportedOnce) {
  // Edges 0->1 and 0->3; the two messages for the non-edge 0->2 form a
  // run that sorts between the two valid runs of source 0.
  TaskGraph g;
  for (int i = 0; i < 4; ++i) g.add_task(1.0);
  g.add_edge(0, 1, 1.0);
  g.add_edge(0, 3, 1.0);
  g.finalize();
  const Platform p({1.0, 1.0, 1.0, 1.0}, 1.0);
  Schedule s(4);
  s.place_task(0, 0, 0.0, 1.0);
  s.add_comm({0, 1, 0, 1, 1.0, 2.0});
  s.place_task(1, 1, 2.0, 3.0);
  s.add_comm({0, 2, 0, 2, 2.0, 3.0});
  s.add_comm({0, 2, 0, 2, 4.0, 5.0});
  s.place_task(2, 2, 0.0, 1.0);
  s.add_comm({0, 3, 0, 3, 3.0, 4.0});
  s.place_task(3, 3, 4.0, 5.0);
  const ValidationResult r = validate_one_port(s, g, p);
  ASSERT_EQ(r.errors.size(), 1u) << r.message();
  EXPECT_EQ(r.errors[0], "M5: message for non-existent edge 0->2");
}

TEST(ValidateMacro, MessageNamingTaskOutsideGraphIsReported) {
  // Schedule keeps message endpoints below its own size, so a message can
  // only name a task the graph lacks when the schedule is larger.
  ChainFixture f;
  Schedule s(3);
  s.place_task(0, 0, 0.0, 1.0);
  s.place_task(1, 1, 3.0, 4.0);
  s.place_task(2, 1, 4.0, 5.0);
  s.add_comm({0, 1, 0, 1, 1.0, 3.0});
  s.add_comm({2, 0, 1, 0, 5.0, 6.0});
  s.add_comm({0, 2, 0, 1, 3.0, 4.0});
  ValidationResult r;
  ASSERT_NO_THROW(r = validate_one_port(s, f.graph, f.platform));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("schedule has 3 tasks, graph has 2"),
            std::string::npos)
      << r.message();
}

TEST(ValidateMacro, DuplicateMessagesOnOneEdge) {
  ChainFixture f;
  Schedule s(2);
  s.place_task(0, 0, 0.0, 1.0);
  s.add_comm({0, 1, 0, 1, 1.0, 3.0});
  s.add_comm({0, 1, 0, 1, 1.0, 3.0});
  s.place_task(1, 1, 3.0, 4.0);
  const ValidationResult r = validate_macro_dataflow(s, f.graph, f.platform);
  ASSERT_FALSE(r.ok());
  // The second copy reads as a hop that restarts from the source.
  EXPECT_NE(r.message().find("M5: edge 0->1: hop P0->P1 does not continue "
                             "from P1"),
            std::string::npos)
      << r.message();
  EXPECT_NE(r.message().find("before the previous hop lands"),
            std::string::npos)
      << r.message();
  // Both copies belong to a real edge: neither is spurious.
  EXPECT_EQ(r.message().find("non-existent"), std::string::npos)
      << r.message();
  // Sharing both ports, they also break the one-port rules.
  const ValidationResult one_port =
      validate_one_port(s, f.graph, f.platform);
  EXPECT_NE(one_port.message().find("O1"), std::string::npos);
  EXPECT_NE(one_port.message().find("O2"), std::string::npos);
}

TEST(ValidateMacro, WideForkJoinValidatesClean) {
  // 10k successors of one fork: each edge finds its chain by binary
  // search inside the fork's block of messages.
  const TaskGraph g = testbeds::make_fork_join(10000, /*comm_ratio=*/0.1);
  const Platform p = make_paper_platform();
  const Schedule s = heft(g, p, {.model = EftEngine::Model::kOnePort});
  ASSERT_GT(s.num_comms(), 1000u);
  const ValidationResult r = validate_one_port(s, g, p);
  EXPECT_TRUE(r.ok()) << r.message();
  EXPECT_TRUE(validate_macro_dataflow(s, g, p).ok());
}

// ------------------------------------------------------------- one-port

/// Fork 0 -> {1, 2} on three processors; both messages leave P0.
struct ForkFixture {
  ForkFixture() {
    graph.add_task(1.0);
    graph.add_task(1.0);
    graph.add_task(1.0);
    graph.add_edge(0, 1, 2.0);
    graph.add_edge(0, 2, 2.0);
    graph.finalize();
  }
  TaskGraph graph;
  Platform platform{{1.0, 1.0, 1.0}, 1.0};
};

TEST(ValidateOnePort, RejectsOverlappingSends) {
  ForkFixture f;
  Schedule s(3);
  s.place_task(0, 0, 0.0, 1.0);
  s.add_comm({0, 1, 0, 1, 1.0, 3.0});
  s.add_comm({0, 2, 0, 2, 1.0, 3.0});  // same send port, same interval
  s.place_task(1, 1, 3.0, 4.0);
  s.place_task(2, 2, 3.0, 4.0);
  // The macro validator is fine with it ...
  EXPECT_TRUE(validate_macro_dataflow(s, f.graph, f.platform).ok());
  // ... the one-port validator is not.
  const ValidationResult r = validate_one_port(s, f.graph, f.platform);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("O1"), std::string::npos);
}

TEST(ValidateOnePort, TiedMessagesReportTheSameErrorsInAnyOrder) {
  // Both messages leave P0 at the same time: the report must not depend
  // on which one comms() lists first.
  ForkFixture f;
  const CommPlacement a{0, 1, 0, 1, 1.0, 3.0};
  const CommPlacement b{0, 2, 0, 2, 1.0, 3.0};
  std::string messages[2];
  for (int order = 0; order < 2; ++order) {
    Schedule s(3);
    s.place_task(0, 0, 0.0, 1.0);
    s.add_comm(order == 0 ? a : b);
    s.add_comm(order == 0 ? b : a);
    s.place_task(1, 1, 3.0, 4.0);
    s.place_task(2, 2, 3.0, 4.0);
    messages[order] = validate_one_port(s, f.graph, f.platform).message();
  }
  EXPECT_NE(messages[0].find("O1"), std::string::npos) << messages[0];
  EXPECT_EQ(messages[0], messages[1]);
}

TEST(ValidateOnePort, AcceptsSerializedSends) {
  ForkFixture f;
  Schedule s(3);
  s.place_task(0, 0, 0.0, 1.0);
  s.add_comm({0, 1, 0, 1, 1.0, 3.0});
  s.add_comm({0, 2, 0, 2, 3.0, 5.0});
  s.place_task(1, 1, 3.0, 4.0);
  s.place_task(2, 2, 5.0, 6.0);
  EXPECT_TRUE(validate_one_port(s, f.graph, f.platform).ok());
}

TEST(ValidateOnePort, RejectsOverlappingReceives) {
  // Join {0, 1} -> 2: both messages arrive at task 2's processor.
  TaskGraph g;
  g.add_task(1.0);
  g.add_task(1.0);
  g.add_task(1.0);
  g.add_edge(0, 2, 2.0);
  g.add_edge(1, 2, 2.0);
  g.finalize();
  const Platform p({1.0, 1.0, 1.0}, 1.0);
  Schedule s(3);
  s.place_task(0, 0, 0.0, 1.0);
  s.place_task(1, 1, 0.0, 1.0);
  s.add_comm({0, 2, 0, 2, 1.0, 3.0});
  s.add_comm({1, 2, 1, 2, 1.0, 3.0});  // same receive port
  s.place_task(2, 2, 3.0, 4.0);
  const ValidationResult r = validate_one_port(s, g, p);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("O2"), std::string::npos);
}

TEST(ValidateOnePort, SendAndReceiveMayOverlapOnOneProcessor) {
  // 0 on P0 sends to 2 on P1 while P0 receives 1's output from P2:
  // bi-directional ports are independent.
  TaskGraph g;
  g.add_task(1.0);  // 0 on P0
  g.add_task(1.0);  // 1 on P2
  g.add_task(1.0);  // 2 on P1, child of 0
  g.add_task(1.0);  // 3 on P0, child of 1
  g.add_edge(0, 2, 2.0);
  g.add_edge(1, 3, 2.0);
  g.finalize();
  const Platform p({1.0, 1.0, 1.0}, 1.0);
  Schedule s(4);
  s.place_task(0, 0, 0.0, 1.0);
  s.place_task(1, 2, 0.0, 1.0);
  s.add_comm({0, 2, 0, 1, 1.0, 3.0});  // P0 sending
  s.add_comm({1, 3, 2, 0, 1.0, 3.0});  // P0 receiving, same interval
  s.place_task(2, 1, 3.0, 4.0);
  s.place_task(3, 0, 3.0, 4.0);
  EXPECT_TRUE(validate_one_port(s, g, p).ok());
}

TEST(ValidateOnePort, DegenerateMessagesNeverConflict) {
  ForkFixture f;
  // Data 0 edges: rebuild the graph with zero volumes.
  TaskGraph g;
  g.add_task(0.0);
  g.add_task(0.0);
  g.add_task(0.0);
  g.add_edge(0, 1, 0.0);
  g.add_edge(0, 2, 0.0);
  g.finalize();
  Schedule s(3);
  s.place_task(0, 0, 0.0, 0.0);
  s.add_comm({0, 1, 0, 1, 0.0, 0.0});
  s.add_comm({0, 2, 0, 2, 0.0, 0.0});
  s.place_task(1, 1, 0.0, 0.0);
  s.place_task(2, 2, 0.0, 0.0);
  EXPECT_TRUE(validate_one_port(s, g, f.platform).ok());
}

TEST(Validate, CollectsMultipleErrors) {
  ForkFixture f;
  Schedule s(3);
  s.place_task(0, 0, 0.0, 2.0);  // M2: wrong duration
  s.place_task(1, 1, 0.0, 1.0);  // M4: no message, starts too early
  s.place_task(2, 2, 0.0, 1.0);  // M4 again
  const ValidationResult r = validate_one_port(s, f.graph, f.platform);
  ASSERT_FALSE(r.ok());
  EXPECT_GE(r.errors.size(), 3u);
}

TEST(Validate, SizeMismatchIsReported) {
  ForkFixture f;
  const Schedule s(1);
  const ValidationResult r = validate_one_port(s, f.graph, f.platform);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.message().find("graph has"), std::string::npos);
}

}  // namespace
}  // namespace oneport
