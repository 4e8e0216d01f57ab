#include "io/instance_io.h"

#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>

#include "util/check.h"

namespace minrej {

namespace {

/// Token reader that strips '#' comments and reports position on errors.
class TokenReader {
 public:
  explicit TokenReader(std::istream& in) : in_(in) {}

  std::string next(const char* what) {
    std::string token;
    while (in_ >> token) {
      if (token[0] == '#') {
        in_.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
        continue;
      }
      return token;
    }
    throw InvalidArgument(std::string("instance file truncated: expected ") +
                          what);
  }

  long long next_int(const char* what) {
    const std::string token = next(what);
    std::size_t pos = 0;
    long long value = 0;
    try {
      value = std::stoll(token, &pos);
    } catch (const std::exception&) {
      pos = 0;
    }
    MINREJ_REQUIRE(pos == token.size(),
                   std::string("bad integer for ") + what + ": " + token);
    return value;
  }

  /// An id or a vertex count: any value outside the uint32_t range is
  /// rejected here, before a narrowing cast could wrap it onto a valid id.
  std::uint32_t next_id(const char* what) {
    const long long value = next_int(what);
    MINREJ_REQUIRE(value >= 0 && value <= 0xFFFFFFFFLL,
                   std::string(what) + " out of range: " +
                       std::to_string(value));
    return static_cast<std::uint32_t>(value);
  }

  double next_double(const char* what) {
    const std::string token = next(what);
    std::size_t pos = 0;
    double value = 0;
    try {
      value = std::stod(token, &pos);
    } catch (const std::exception&) {
      pos = 0;
    }
    MINREJ_REQUIRE(pos == token.size(),
                   std::string("bad number for ") + what + ": " + token);
    return value;
  }

  void expect(const char* literal) {
    const std::string token = next(literal);
    MINREJ_REQUIRE(token == literal, "expected '" + std::string(literal) +
                                         "', got '" + token + "'");
  }

 private:
  std::istream& in_;
};

}  // namespace

void save_admission_instance(std::ostream& out,
                             const AdmissionInstance& instance,
                             const std::string& comment) {
  std::size_t begin = 0;
  while (begin < comment.size()) {
    const std::size_t end = comment.find('\n', begin);
    const std::size_t stop = end == std::string::npos ? comment.size() : end;
    out << "# " << comment.substr(begin, stop - begin) << '\n';
    if (end == std::string::npos) break;
    begin = end + 1;
  }
  save_admission_instance(out, instance);
}

void save_admission_instance(std::ostream& out,
                             const AdmissionInstance& instance) {
  const Graph& g = instance.graph();
  // max_digits10 round-trips every double exactly.
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "minrej-admission 1\n";
  out << "graph " << g.vertex_count() << ' ' << g.edge_count() << '\n';
  for (const Edge& e : g.edges()) {
    out << "e " << e.from << ' ' << e.to << ' ' << e.capacity << '\n';
  }
  for (const Request& r : instance.requests()) {
    out << "r " << r.cost << ' ' << (r.must_accept ? 1 : 0) << ' '
        << r.edges.size();
    for (EdgeId e : r.edges) out << ' ' << e;
    out << '\n';
  }
}

AdmissionInstance load_admission_instance(std::istream& in) {
  TokenReader reader(in);
  reader.expect("minrej-admission");
  MINREJ_REQUIRE(reader.next_int("format version") == 1,
                 "unsupported admission format version");
  reader.expect("graph");
  const std::uint32_t vertices = reader.next_id("vertex count");
  const long long edge_count = reader.next_int("edge count");
  MINREJ_REQUIRE(vertices > 0 && edge_count >= 0, "bad graph header");

  // Counts are never reserved ahead of the data: every loop below is
  // bounded by the input itself and fails at EOF with InvalidArgument.
  std::vector<Edge> edges;
  for (long long i = 0; i < edge_count; ++i) {
    reader.expect("e");
    Edge e;
    e.from = reader.next_id("edge source");
    e.to = reader.next_id("edge target");
    e.capacity = reader.next_int("edge capacity");
    edges.push_back(e);
  }
  Graph graph(vertices, std::move(edges));

  std::vector<Request> requests;
  std::string token;
  while (in >> token) {
    if (token[0] == '#') {
      in.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
      continue;
    }
    MINREJ_REQUIRE(token == "r", "expected request line, got '" + token + "'");
    const double cost = reader.next_double("request cost");
    const long long must_accept = reader.next_int("must_accept flag");
    MINREJ_REQUIRE(must_accept == 0 || must_accept == 1,
                   "must_accept must be 0 or 1");
    const long long k = reader.next_int("request edge count");
    MINREJ_REQUIRE(k >= 1, "request needs at least one edge");
    std::vector<EdgeId> request_edges;
    for (long long i = 0; i < k; ++i) {
      request_edges.push_back(reader.next_id("request edge id"));
    }
    requests.emplace_back(std::move(request_edges), cost, must_accept == 1);
  }
  return AdmissionInstance(std::move(graph), std::move(requests));
}

void save_cover_instance(std::ostream& out, const CoverInstance& instance) {
  const SetSystem& sys = instance.system();
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  out << "minrej-setcover 1\n";
  out << "system " << sys.element_count() << ' ' << sys.set_count() << '\n';
  for (std::size_t s = 0; s < sys.set_count(); ++s) {
    const auto members = sys.elements_of(static_cast<SetId>(s));
    out << "s " << sys.cost(static_cast<SetId>(s)) << ' ' << members.size();
    for (ElementId j : members) out << ' ' << j;
    out << '\n';
  }
  out << "arrivals " << instance.arrivals().size();
  for (ElementId j : instance.arrivals()) out << ' ' << j;
  out << '\n';
}

CoverInstance load_cover_instance(std::istream& in) {
  TokenReader reader(in);
  reader.expect("minrej-setcover");
  MINREJ_REQUIRE(reader.next_int("format version") == 1,
                 "unsupported setcover format version");
  reader.expect("system");
  const std::uint32_t n = reader.next_id("element count");
  const long long m = reader.next_int("set count");
  MINREJ_REQUIRE(n > 0 && m > 0, "bad system header");

  std::vector<std::vector<ElementId>> sets;
  std::vector<double> costs;
  for (long long s = 0; s < m; ++s) {
    reader.expect("s");
    costs.push_back(reader.next_double("set cost"));
    const long long k = reader.next_int("set size");
    MINREJ_REQUIRE(k >= 1, "sets must be non-empty");
    std::vector<ElementId> members;
    for (long long i = 0; i < k; ++i) {
      members.push_back(reader.next_id("element id"));
    }
    sets.push_back(std::move(members));
  }
  SetSystem system(n, std::move(sets), std::move(costs));

  reader.expect("arrivals");
  const long long count = reader.next_int("arrival count");
  MINREJ_REQUIRE(count >= 0, "bad arrival count");
  std::vector<ElementId> arrivals;
  for (long long i = 0; i < count; ++i) {
    arrivals.push_back(reader.next_id("arrival"));
  }
  return CoverInstance(std::move(system), std::move(arrivals));
}

namespace {

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path);
  MINREJ_REQUIRE(out.good(), "cannot open for writing: " + path);
  return out;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream in(path);
  MINREJ_REQUIRE(in.good(), "cannot open for reading: " + path);
  return in;
}

}  // namespace

void save_admission_file(const std::string& path,
                         const AdmissionInstance& instance) {
  auto out = open_out(path);
  save_admission_instance(out, instance);
}

void save_admission_file(const std::string& path,
                         const AdmissionInstance& instance,
                         const std::string& comment) {
  auto out = open_out(path);
  save_admission_instance(out, instance, comment);
}

AdmissionInstance load_admission_file(const std::string& path) {
  auto in = open_in(path);
  return load_admission_instance(in);
}

void save_cover_file(const std::string& path,
                     const CoverInstance& instance) {
  auto out = open_out(path);
  save_cover_instance(out, instance);
}

CoverInstance load_cover_file(const std::string& path) {
  auto in = open_in(path);
  return load_cover_instance(in);
}

std::string detect_instance_kind(const std::string& path) {
  auto in = open_in(path);
  std::string header;
  in >> header;
  if (header == "minrej-admission") return "admission";
  if (header == "minrej-setcover") return "setcover";
  throw InvalidArgument("unknown instance header in " + path + ": " + header);
}

}  // namespace minrej
