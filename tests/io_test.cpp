// Tests for src/io: instance serialization round-trips and error handling.
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "io/instance_io.h"
#include "setcover/generators.h"
#include "sim/workloads.h"
#include "test_util.h"
#include "util/rng.h"

namespace minrej {
namespace {

bool same_admission(const AdmissionInstance& a, const AdmissionInstance& b) {
  if (a.graph().vertex_count() != b.graph().vertex_count()) return false;
  if (a.graph().edge_count() != b.graph().edge_count()) return false;
  for (EdgeId e = 0; e < a.graph().edge_count(); ++e) {
    const Edge& ea = a.graph().edge(e);
    const Edge& eb = b.graph().edge(e);
    if (ea.from != eb.from || ea.to != eb.to || ea.capacity != eb.capacity) {
      return false;
    }
  }
  if (a.request_count() != b.request_count()) return false;
  for (RequestId i = 0; i < a.request_count(); ++i) {
    const Request& ra = a.request(i);
    const Request& rb = b.request(i);
    if (ra.edges != rb.edges || ra.must_accept != rb.must_accept) return false;
    if (std::abs(ra.cost - rb.cost) > 1e-12 * std::max(1.0, ra.cost)) {
      return false;
    }
  }
  return true;
}

TEST(InstanceIo, AdmissionRoundTrip) {
  Rng rng(1);
  const AdmissionInstance original = make_line_workload(
      6, 3, 25, 1, 4, CostModel::spread(1.0, 16.0), rng);
  std::stringstream buffer;
  save_admission_instance(buffer, original);
  const AdmissionInstance loaded = load_admission_instance(buffer);
  EXPECT_TRUE(same_admission(original, loaded));
  EXPECT_EQ(original.max_excess(), loaded.max_excess());
}

TEST(InstanceIo, AdmissionRoundTripWithMustAccept) {
  Graph g(3, {{0, 1, 2}, {1, 2, 4}});
  AdmissionInstance original(
      std::move(g),
      {Request({0}, 1.5), Request({0, 1}, 2.25, /*must_accept=*/true)});
  std::stringstream buffer;
  save_admission_instance(buffer, original);
  const AdmissionInstance loaded = load_admission_instance(buffer);
  EXPECT_TRUE(same_admission(original, loaded));
  EXPECT_TRUE(loaded.request(1).must_accept);
}

TEST(InstanceIo, AdmissionCommentStampRoundTrips) {
  Rng rng(2);
  const AdmissionInstance original = make_line_workload(
      4, 2, 10, 1, 3, CostModel::unit_costs(), rng);
  std::stringstream buffer;
  save_admission_instance(buffer, original,
                          "scenario: dense_burst seed: 7\nsecond line");
  const std::string text = buffer.str();
  EXPECT_EQ(text.rfind("# scenario: dense_burst seed: 7\n# second line\n", 0),
            0u);
  const AdmissionInstance loaded = load_admission_instance(buffer);
  EXPECT_TRUE(same_admission(original, loaded));
}

TEST(InstanceIo, CoverRoundTrip) {
  Rng rng(2);
  SetSystem sys = random_uniform_system(10, 8, 3, 2, rng);
  sys = with_random_costs(sys, 1.0, 9.0, rng);
  const auto arrivals = arrivals_each_k_times(10, 2, true, rng);
  CoverInstance original(sys, arrivals);

  std::stringstream buffer;
  save_cover_instance(buffer, original);
  const CoverInstance loaded = load_cover_instance(buffer);

  EXPECT_EQ(loaded.system().element_count(), 10u);
  EXPECT_EQ(loaded.system().set_count(), 8u);
  EXPECT_EQ(loaded.arrivals(), original.arrivals());
  EXPECT_EQ(loaded.demand(), original.demand());
  for (SetId s = 0; s < 8; ++s) {
    const auto a = original.system().elements_of(s);
    const auto b = loaded.system().elements_of(s);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    EXPECT_NEAR(original.system().cost(s), loaded.system().cost(s), 1e-9);
  }
}

TEST(InstanceIo, CommentsAndWhitespaceTolerated) {
  const char* text =
      "minrej-admission 1\n"
      "# a comment line\n"
      "graph 3 2\n"
      "e 0 1 2   # inline comment\n"
      "e 1 2 1\n"
      "r 1.5 0 2 0 1\n";
  std::stringstream in(text);
  const AdmissionInstance inst = load_admission_instance(in);
  EXPECT_EQ(inst.request_count(), 1u);
  EXPECT_DOUBLE_EQ(inst.request(0).cost, 1.5);
}

TEST(InstanceIo, RejectsWrongHeader) {
  std::stringstream in("minrej-banana 1\n");
  EXPECT_THROW(load_admission_instance(in), InvalidArgument);
}

TEST(InstanceIo, RejectsWrongVersion) {
  std::stringstream in("minrej-admission 7\ngraph 2 0\n");
  EXPECT_THROW(load_admission_instance(in), InvalidArgument);
}

TEST(InstanceIo, RejectsTruncatedFile) {
  std::stringstream in("minrej-admission 1\ngraph 3 2\ne 0 1 2\n");
  EXPECT_THROW(load_admission_instance(in), InvalidArgument);
}

TEST(InstanceIo, RejectsMalformedNumbers) {
  std::stringstream in(
      "minrej-admission 1\ngraph 3 1\ne 0 1 abc\n");
  EXPECT_THROW(load_admission_instance(in), InvalidArgument);
}

TEST(InstanceIo, RejectsBadMustAcceptFlag) {
  std::stringstream in(
      "minrej-admission 1\ngraph 2 1\ne 0 1 1\nr 1.0 7 1 0\n");
  EXPECT_THROW(load_admission_instance(in), InvalidArgument);
}

TEST(InstanceIo, CoverRejectsInvalidStructure) {
  // Empty set.
  std::stringstream bad_set(
      "minrej-setcover 1\nsystem 2 1\ns 1.0 0\narrivals 0\n");
  EXPECT_THROW(load_cover_instance(bad_set), InvalidArgument);
  // Arrival references unknown element (validated by CoverInstance).
  std::stringstream bad_arrival(
      "minrej-setcover 1\nsystem 2 1\ns 1.0 1 0\narrivals 1 9\n");
  EXPECT_THROW(load_cover_instance(bad_arrival), InvalidArgument);
}

// Hostile numbers: a count larger than the file must fail at EOF, not
// drive a reserve (std::length_error); an id past uint32_t must fail, not
// wrap onto a valid id.
TEST(InstanceIo, RejectsAHugeEdgeCountWithoutAllocating) {
  std::stringstream in("minrej-admission 1\ngraph 2 4000000000000000000\n");
  EXPECT_THROW(load_admission_instance(in), InvalidArgument);
}

TEST(InstanceIo, RejectsAHugeVertexCount) {
  std::stringstream in("minrej-admission 1\ngraph 4000000000000000000 0\n");
  EXPECT_THROW(load_admission_instance(in), InvalidArgument);
}

TEST(InstanceIo, RejectsAHugeRequestEdgeCountWithoutAllocating) {
  std::stringstream in(
      "minrej-admission 1\ngraph 2 1\ne 0 1 1\n"
      "r 1 0 4000000000000000000 0\n");
  EXPECT_THROW(load_admission_instance(in), InvalidArgument);
}

TEST(InstanceIo, RejectsAHugeArrivalCountWithoutAllocating) {
  std::stringstream in(
      "minrej-setcover 1\nsystem 1 1\ns 1.0 1 0\n"
      "arrivals 4000000000000000000 0\n");
  EXPECT_THROW(load_cover_instance(in), InvalidArgument);
}

TEST(InstanceIo, RejectsIdsThatWouldWrapPastUint32) {
  // 4294967296 == 2^32 would narrow to edge 0 of this one-edge graph.
  std::stringstream request(
      "minrej-admission 1\ngraph 2 1\ne 0 1 1\nr 1 0 1 4294967296\n");
  EXPECT_THROW(load_admission_instance(request), InvalidArgument);
  std::stringstream endpoint(
      "minrej-admission 1\ngraph 2 1\ne 4294967296 1 1\n");
  EXPECT_THROW(load_admission_instance(endpoint), InvalidArgument);
  std::stringstream arrival(
      "minrej-setcover 1\nsystem 1 1\ns 1.0 1 0\narrivals 1 4294967296\n");
  EXPECT_THROW(load_cover_instance(arrival), InvalidArgument);
}

TEST(InstanceIo, FileHelpersAndKindDetection) {
  Rng rng(3);
  const std::string admission_path = "/tmp/minrej_io_test_admission.txt";
  const std::string cover_path = "/tmp/minrej_io_test_cover.txt";
  save_admission_file(admission_path,
                      make_single_edge_burst(2, 6, CostModel::unit_costs(),
                                             rng));
  SetSystem sys = random_uniform_system(5, 4, 2, 1, rng);
  save_cover_file(cover_path, CoverInstance(sys, arrivals_each_once(5, rng)));

  EXPECT_EQ(detect_instance_kind(admission_path), "admission");
  EXPECT_EQ(detect_instance_kind(cover_path), "setcover");
  EXPECT_EQ(load_admission_file(admission_path).request_count(), 6u);
  EXPECT_EQ(load_cover_file(cover_path).arrivals().size(), 5u);
  std::remove(admission_path.c_str());
  std::remove(cover_path.c_str());
}

TEST(InstanceIo, MissingFileThrows) {
  EXPECT_THROW(load_admission_file("/nonexistent/nowhere.txt"),
               InvalidArgument);
  EXPECT_THROW(detect_instance_kind("/nonexistent/nowhere.txt"),
               InvalidArgument);
}

// ---------------------------------------------------------------------------
// Write → read → equality round trips (shared fixtures from test_util.h)
// ---------------------------------------------------------------------------

class IoRoundTrip : public test::SeededTest {};

TEST_F(IoRoundTrip, RandomAdmissionInstance) {
  const AdmissionInstance original = test::small_line_instance(rng);
  std::stringstream stream;
  save_admission_instance(stream, original);
  const AdmissionInstance loaded = load_admission_instance(stream);
  test::expect_same_instance(original, loaded);
}

TEST_F(IoRoundTrip, RandomCoverInstance) {
  const CoverInstance original = test::small_cover_instance(rng);
  std::stringstream stream;
  save_cover_instance(stream, original);
  const CoverInstance loaded = load_cover_instance(stream);
  test::expect_same_instance(original, loaded);
}

TEST_F(IoRoundTrip, EmptyAdmissionInstance) {
  const AdmissionInstance original = test::empty_admission_instance();
  std::stringstream stream;
  save_admission_instance(stream, original);
  const AdmissionInstance loaded = load_admission_instance(stream);
  EXPECT_EQ(loaded.request_count(), 0u);
  test::expect_same_instance(original, loaded);
}

TEST_F(IoRoundTrip, EmptyCoverArrivals) {
  const CoverInstance original = test::empty_cover_instance();
  std::stringstream stream;
  save_cover_instance(stream, original);
  const CoverInstance loaded = load_cover_instance(stream);
  EXPECT_TRUE(loaded.arrivals().empty());
  test::expect_same_instance(original, loaded);
}

TEST_F(IoRoundTrip, SecondSaveIsByteIdentical) {
  // Saving what was loaded must reproduce the file byte for byte: the
  // format stores doubles with max_digits10, so nothing drifts.
  const AdmissionInstance original = test::small_line_instance(rng);
  std::stringstream first;
  save_admission_instance(first, original);
  const AdmissionInstance loaded = load_admission_instance(first);
  std::stringstream second;
  save_admission_instance(second, loaded);
  EXPECT_EQ(first.str(), second.str());
}

}  // namespace
}  // namespace minrej
