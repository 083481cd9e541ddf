// The operator-facing files under dashboards/ name the server's metric
// families: the Grafana dashboard's queries and the Prometheus burn-rate
// rules. Every cosched_* family they name must be one that a live
// CoschedServer or a RouterServer over one local shard exports on /metrics
// once each has served a SubmitJob, and every bucket edge a rule selects
// (le="...") must be an edge of that histogram; otherwise a panel draws
// nothing and a rule never fires.
#include <gtest/gtest.h>

#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/http.hpp"
#include "obs/metrics_registry.hpp"
#include "online/trace.hpp"
#include "rpc/client.hpp"
#include "rpc/server.hpp"
#include "shard/router.hpp"
#include "shard/router_server.hpp"

namespace cosched {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// `name` without a histogram sample's _bucket/_sum/_count suffix.
std::string family_of(std::string name) {
  for (const std::string suffix : {"_bucket", "_sum", "_count"}) {
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      name.resize(name.size() - suffix.size());
      break;
    }
  }
  return name;
}

/// What the /metrics pages export: families, and "<family> le=<edge>" for
/// every histogram bucket.
struct Exported {
  std::set<std::string> families;
  std::set<std::string> bucket_edges;
};

/// Sends one SubmitJob to the door on `port`, then scrapes its /metrics.
void scrape_after_one_submit(std::uint16_t port, std::uint16_t http_port,
                             Exported& out) {
  TraceSpec spec;
  spec.job_count = 1;
  ClientOptions client_options;
  client_options.port = port;
  CoschedClient client(client_options);
  SubmitJobResponse reply;
  RpcError submitted = client.submit_job(generate_trace(spec).jobs[0], reply);
  ASSERT_TRUE(submitted.ok()) << submitted.describe();

  const std::string page = http_get("127.0.0.1", http_port, "/metrics");
  std::vector<PrometheusSample> samples;
  ASSERT_TRUE(parse_prometheus_text(page, samples)) << page;
  const std::regex le("le=\"([^\"]*)\"");
  for (const PrometheusSample& sample : samples) {
    const std::string family = family_of(sample.name);
    out.families.insert(family);
    std::smatch edge;
    if (std::regex_search(sample.labels, edge, le))
      out.bucket_edges.insert(family + " le=" + edge[1].str());
  }
}

TEST(Dashboards, QueriedFamiliesAreExported) {
  Exported exported;
  std::string error;
  {
    ServerOptions options;
    options.service.wall_clock = false;
    CoschedServer server(options);
    ASSERT_TRUE(server.start(error)) << error;
    scrape_after_one_submit(server.port(), server.http_port(), exported);
    server.stop();
  }
  {
    ShardRouter router{RouterOptions{}};
    LiveServiceOptions shard;
    shard.wall_clock = false;
    router.add_local_shard(shard);
    RouterServer front(router, RouterServerOptions{});
    ASSERT_TRUE(front.start(error)) << error;
    scrape_after_one_submit(front.port(), front.http_port(), exported);
    front.stop();
  }

  const std::string dir = std::string(COSCHED_SOURCE_DIR) + "/dashboards/";
  const std::regex token("cosched_[a-z0-9_]+");
  for (const char* file : {"grafana-cosched.json", "cosched-slo.rules.yml"}) {
    SCOPED_TRACE(file);
    const std::string text = read_file(dir + file);
    ASSERT_FALSE(text.empty());
    for (auto it = std::sregex_iterator(text.begin(), text.end(), token);
         it != std::sregex_iterator(); ++it)
      EXPECT_EQ(exported.families.count(family_of(it->str())), 1u)
          << it->str() << " is not exported on /metrics";
  }

  const std::string rules = read_file(dir + "cosched-slo.rules.yml");
  const std::regex bucket("(cosched_[a-z0-9_]+)_bucket\\{le=\"([^\"]*)\"\\}");
  std::size_t selected = 0;
  for (auto it = std::sregex_iterator(rules.begin(), rules.end(), bucket);
       it != std::sregex_iterator(); ++it, ++selected)
    EXPECT_EQ(exported.bucket_edges.count((*it)[1].str() + " le=" +
                                          (*it)[2].str()),
              1u)
        << it->str() << " is not a bucket edge on /metrics";
  EXPECT_GT(selected, 0u);
}

}  // namespace
}  // namespace cosched
