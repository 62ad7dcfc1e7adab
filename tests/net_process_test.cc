// Cross-process differential test (DESIGN.md §9): spawn REAL expbsi_node
// processes (the binary built from src/net/node_main.cc), run a full
// scorecard sweep through the scatter/gather coordinator against them, and
// require the results bit-identical to (1) the in-process AdhocCluster on
// the same data and (2) the direct engine. This is the end-to-end proof
// that the wire codec, the transport and the node execution path preserve
// every bit across a genuine process boundary -- no shared memory, no
// shared allocator, nothing but the protocol.
//
// Node lifecycle: each child recovers the warehouse from a snapshot
// directory (SnapshotWriter::Write), prints "PORT <p>" on stdout once
// listening, and serves until its stdin (a pipe held by this process)
// reaches EOF -- so children can never outlive the test, even if it dies
// mid-run.

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/adhoc_cluster.h"
#include "cluster/placement.h"
#include "common/file_io.h"
#include "engine/experiment_data.h"
#include "engine/scorecard.h"
#include "expdata/generator.h"
#include "net/coordinator.h"
#include "net/socket.h"
#include "net/transport.h"
#include "obs/fleet.h"
#include "storage/snapshot.h"
#include "wire/messages.h"

namespace expbsi {
namespace {

#ifndef EXPBSI_NODE_BINARY
#error "EXPBSI_NODE_BINARY must point at the expbsi_node executable"
#endif

constexpr int kNumNodes = 3;
constexpr Date kLo = 30;
constexpr Date kHi = 35;

// One spawned expbsi_node. The child's stdin is `stdin_fd` (closing it
// shuts the node down); its stdout was read just long enough to learn the
// port and is then left to the child.
struct NodeProcess {
  pid_t pid = -1;
  int stdin_fd = -1;
  uint16_t port = 0;
};

// Removes a snapshot directory written by WriteSnapshotDir.
void RemoveSnapshotDir(const std::string& dir) {
  const Result<std::vector<std::string>> entries = fileio::ListDir(dir);
  if (entries.ok()) {
    for (const std::string& entry : entries.value()) {
      fileio::RemoveFileIfExists(dir + "/" + entry);
    }
  }
  ::rmdir(dir.c_str());
}

// Writes `store` as a fresh snapshot directory under the test tmp root --
// the form expbsi_node recovers its warehouse from -- and returns its path.
std::string WriteSnapshotDir(const BsiStore& store, const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  RemoveSnapshotDir(dir);
  const Result<SnapshotWriteStats> written = SnapshotWriter::Write(store, dir);
  EXPECT_TRUE(written.ok()) << written.status().ToString();
  return dir;
}

// Forks and execs one node; returns pid -1 on any setup failure.
// `extra_args` are appended verbatim (topology / repair flags).
NodeProcess SpawnNode(const std::string& snapshot_dir, int node_id,
                      const std::vector<std::string>& extra_args = {}) {
  NodeProcess node;
  int to_child[2];   // parent writes (never does) -> child stdin
  int from_child[2]; // child stdout -> parent reads the PORT line
  if (::pipe(to_child) != 0) return node;
  if (::pipe(from_child) != 0) {
    ::close(to_child[0]);
    ::close(to_child[1]);
    return node;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
      ::close(fd);
    }
    return node;
  }
  if (pid == 0) {
    // Child: wire the pipes to stdin/stdout and exec the node binary.
    ::dup2(to_child[0], STDIN_FILENO);
    ::dup2(from_child[1], STDOUT_FILENO);
    for (int fd : {to_child[0], to_child[1], from_child[0], from_child[1]}) {
      ::close(fd);
    }
    std::vector<std::string> args = {EXPBSI_NODE_BINARY,
                                     "--snapshot-dir=" + snapshot_dir,
                                     "--node-id=" + std::to_string(node_id)};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::execv(EXPBSI_NODE_BINARY, argv.data());
    std::perror("execv(expbsi_node)");
    ::_exit(127);
  }
  // Parent.
  ::close(to_child[0]);
  ::close(from_child[1]);
  node.pid = pid;
  node.stdin_fd = to_child[1];

  // Read the "PORT <p>\n" line. The child recovers its snapshot first, so allow
  // it a generous amount of time; reads block until it writes or dies.
  std::string line;
  char ch;
  while (line.size() < 64) {
    const ssize_t n = ::read(from_child[0], &ch, 1);
    if (n <= 0) break;
    if (ch == '\n') break;
    line.push_back(ch);
  }
  ::close(from_child[0]);
  unsigned port = 0;
  if (std::sscanf(line.c_str(), "PORT %u", &port) == 1 && port > 0 &&
      port <= 65535) {
    node.port = static_cast<uint16_t>(port);
  }
  return node;
}

void StopNode(NodeProcess* node) {
  if (node->stdin_fd >= 0) {
    ::close(node->stdin_fd);  // EOF on the child's stdin -> clean shutdown
    node->stdin_fd = -1;
  }
  if (node->pid > 0) {
    int status = 0;
    // Bounded wait: poll for exit, escalate to SIGKILL if the child wedges.
    for (int i = 0; i < 200; ++i) {
      const pid_t r = ::waitpid(node->pid, &status, WNOHANG);
      if (r == node->pid) {
        node->pid = -1;
        return;
      }
      ::usleep(25 * 1000);
    }
    ::kill(node->pid, SIGKILL);
    ::waitpid(node->pid, &status, 0);
    node->pid = -1;
  }
}

TEST(NetProcessTest, CoordinatorOverRealProcessesIsBitIdentical) {
  // Dataset distinct from the other suites', so a passing run here is not
  // an artifact of shared fixtures.
  DatasetConfig config;
  config.num_users = 5000;
  config.num_segments = 7;  // not a multiple of the node count
  config.num_days = 6;
  config.start_date = kLo;
  config.seed = 83;

  ExperimentConfig exp;
  exp.strategy_ids = {801, 802, 803};
  exp.arm_effects = {1.0, 1.08, 0.95};
  exp.traffic_salt = 7;

  MetricConfig m1;
  m1.metric_id = 901;
  m1.value_range = 50;
  m1.daily_participation = 0.6;
  MetricConfig m2;
  m2.metric_id = 902;
  m2.value_range = 1;
  m2.daily_participation = 0.8;

  const Dataset dataset = GenerateDataset(config, {exp}, {m1, m2}, {});
  const ExperimentBsiData bsi = BuildExperimentBsiData(dataset, true);
  const BsiStore cold = BuildColdStore(bsi);

  const std::string snapshot_dir =
      WriteSnapshotDir(cold, "expbsi_net_process_snapshot");

  std::vector<NodeProcess> nodes(kNumNodes);
  net::CoordinatorOptions options;
  for (int i = 0; i < kNumNodes; ++i) {
    nodes[i] = SpawnNode(snapshot_dir, i);
    ASSERT_GT(nodes[i].pid, 0) << "failed to spawn node " << i;
    ASSERT_GT(nodes[i].port, 0)
        << "node " << i << " never reported its port";
    options.node_ports.push_back(nodes[i].port);
  }
  options.num_segments = config.num_segments;

  const std::vector<uint64_t> strategies = {801, 802, 803};
  const std::vector<uint64_t> metrics = {901, 902};

  AdhocClusterConfig cluster_config;
  cluster_config.num_nodes = kNumNodes;
  AdhocCluster cluster(&dataset, &bsi, cluster_config);

  net::Coordinator coordinator(options);

  // Full sweep: the whole range plus every suffix subrange (the per-day
  // exposure filters make subranges a distinct code path).
  for (Date lo = kLo; lo <= kHi; ++lo) {
    SCOPED_TRACE("date range " + std::to_string(lo) + ".." +
                 std::to_string(kHi));
    const Result<AdhocCluster::QueryStats> remote =
        coordinator.QueryBsi(strategies, metrics, lo, kHi);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    EXPECT_FALSE(remote.value().degraded.degraded());

    const Result<AdhocCluster::QueryStats> local =
        cluster.QueryBsi(strategies, metrics, lo, kHi);
    ASSERT_TRUE(local.ok()) << local.status().ToString();

    ASSERT_EQ(remote.value().results.size(), local.value().results.size());
    for (const auto& [pair, values] : remote.value().results) {
      const BucketValues& in_process = local.value().results.at(pair);
      EXPECT_EQ(values.sums, in_process.sums)
          << "pair " << pair.first << "/" << pair.second
          << " diverged from the in-process cluster";
      EXPECT_EQ(values.counts, in_process.counts)
          << "pair " << pair.first << "/" << pair.second;
      const BucketValues direct =
          ComputeStrategyMetricBsi(bsi, pair.first, pair.second, lo, kHi);
      EXPECT_EQ(values.sums, direct.sums)
          << "pair " << pair.first << "/" << pair.second
          << " diverged from the direct engine";
      EXPECT_EQ(values.counts, direct.counts)
          << "pair " << pair.first << "/" << pair.second;
    }
  }

  // A second full-range query exercises the node-side hot tier (first
  // round pulled everything cold); still bit-identical.
  const Result<AdhocCluster::QueryStats> warm =
      coordinator.QueryBsi(strategies, metrics, kLo, kHi);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_GT(warm.value().hot_hits, 0u);
  for (const auto& [pair, values] : warm.value().results) {
    const BucketValues direct =
        ComputeStrategyMetricBsi(bsi, pair.first, pair.second, kLo, kHi);
    EXPECT_EQ(values.sums, direct.sums);
    EXPECT_EQ(values.counts, direct.counts);
  }

  for (NodeProcess& node : nodes) StopNode(&node);
  RemoveSnapshotDir(snapshot_dir);
}

// Killing a real node process mid-sweep degrades gracefully: the
// coordinator requeues its segments onto the surviving processes and the
// answer stays complete and bit-identical.
TEST(NetProcessTest, KilledProcessIsRoutedAround) {
  DatasetConfig config;
  config.num_users = 2000;
  config.num_segments = 6;
  config.num_days = 4;
  config.start_date = kLo;
  config.seed = 89;

  ExperimentConfig exp;
  exp.strategy_ids = {801, 802};
  exp.arm_effects = {1.0, 1.1};
  exp.traffic_salt = 9;

  MetricConfig m1;
  m1.metric_id = 901;
  m1.value_range = 20;
  m1.daily_participation = 0.5;

  const Dataset dataset = GenerateDataset(config, {exp}, {m1}, {});
  const ExperimentBsiData bsi = BuildExperimentBsiData(dataset, true);
  const BsiStore cold = BuildColdStore(bsi);
  const std::string snapshot_dir =
      WriteSnapshotDir(cold, "expbsi_net_process_kill_snapshot");

  std::vector<NodeProcess> nodes(kNumNodes);
  net::CoordinatorOptions options;
  for (int i = 0; i < kNumNodes; ++i) {
    nodes[i] = SpawnNode(snapshot_dir, i);
    ASSERT_GT(nodes[i].pid, 0);
    ASSERT_GT(nodes[i].port, 0);
    options.node_ports.push_back(nodes[i].port);
  }
  options.num_segments = config.num_segments;
  options.allow_degraded = true;

  const std::vector<uint64_t> strategies = {801, 802};
  const std::vector<uint64_t> metrics = {901};
  const Date hi = static_cast<Date>(kLo + config.num_days - 1);

  net::Coordinator coordinator(options);
  const Result<AdhocCluster::QueryStats> before =
      coordinator.QueryBsi(strategies, metrics, kLo, hi);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_FALSE(before.value().degraded.degraded());

  // Kill node 1 outright -- a genuine dead process, connection refused.
  ::kill(nodes[1].pid, SIGKILL);
  int status = 0;
  ::waitpid(nodes[1].pid, &status, 0);
  nodes[1].pid = -1;

  const Result<AdhocCluster::QueryStats> after =
      coordinator.QueryBsi(strategies, metrics, kLo, hi);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after.value().degraded.lost_segments.empty())
      << "segments of the killed process were not requeued";
  EXPECT_EQ(after.value().degraded.nodes_lost, 1);
  for (const auto& [pair, values] : after.value().results) {
    EXPECT_EQ(values.sums, before.value().results.at(pair).sums);
    EXPECT_EQ(values.counts, before.value().results.at(pair).counts);
  }

  for (NodeProcess& node : nodes) StopNode(&node);
  RemoveSnapshotDir(snapshot_dir);
}

// SIGTERM is a graceful drain (satellite of DESIGN.md §11): the node stops
// accepting, finishes in-flight work and exits 0 -- a supervisor's rolling
// restart is distinguishable from a crash. Afterwards the port refuses
// connections.
TEST(NetProcessTest, SigtermDrainsAndExitsZero) {
  // An empty warehouse is enough: this test is about lifecycle, not data.
  const std::string snapshot_dir =
      WriteSnapshotDir(BsiStore(), "expbsi_net_process_drain_snapshot");

  NodeProcess node = SpawnNode(snapshot_dir, 0);
  ASSERT_GT(node.pid, 0);
  ASSERT_GT(node.port, 0);

  // The node is actually serving before the drain.
  const net::Deadline deadline = net::Deadline::After(5.0);
  {
    Result<net::Socket> sock = net::Connect(node.port, deadline);
    ASSERT_TRUE(sock.ok()) << sock.status().ToString();
    wire::Envelope ping;
    ping.type = wire::MsgType::kPing;
    ping.request_id = 1;
    ASSERT_TRUE(
        net::SendEnvelope(sock.value(), ping, deadline, nullptr).ok());
    Result<wire::Envelope> pong = net::RecvEnvelope(sock.value(), deadline, 1);
    ASSERT_TRUE(pong.ok()) << pong.status().ToString();
    EXPECT_EQ(pong.value().type, wire::MsgType::kPong);
  }

  ASSERT_EQ(::kill(node.pid, SIGTERM), 0);
  int status = 0;
  ASSERT_EQ(::waitpid(node.pid, &status, 0), node.pid);
  node.pid = -1;
  ASSERT_TRUE(WIFEXITED(status)) << "node did not exit cleanly on SIGTERM";
  EXPECT_EQ(WEXITSTATUS(status), 0);

  Result<net::Socket> refused =
      net::Connect(node.port, net::Deadline::After(1.0));
  EXPECT_FALSE(refused.ok()) << "drained node still accepts connections";

  StopNode(&node);
  RemoveSnapshotDir(snapshot_dir);
}

// Replica repair across real process boundaries: a node started on an EMPTY
// warehouse file with --repair-peers heals its whole replica set from peer
// processes before serving, fingerprints verified -- and then both a direct
// SegmentFetch and a strict fault-free coordinator sweep are bit-identical
// to the local warehouse.
TEST(NetProcessTest, ReplicaRepairHealsEmptyNodeAcrossProcesses) {
  DatasetConfig config;
  config.num_users = 2000;
  config.num_segments = 6;
  config.num_days = 4;
  config.start_date = kLo;
  config.seed = 97;

  ExperimentConfig exp;
  exp.strategy_ids = {801, 802};
  exp.arm_effects = {1.0, 1.07};
  exp.traffic_salt = 11;

  MetricConfig m1;
  m1.metric_id = 901;
  m1.value_range = 30;
  m1.daily_participation = 0.6;

  const Dataset dataset = GenerateDataset(config, {exp}, {m1}, {});
  const ExperimentBsiData bsi = BuildExperimentBsiData(dataset, true);
  const BsiStore cold = BuildColdStore(bsi);
  const std::string full_dir =
      WriteSnapshotDir(cold, "expbsi_net_process_repair_full");
  const std::string empty_dir =
      WriteSnapshotDir(BsiStore(), "expbsi_net_process_repair_empty");

  const std::vector<std::string> topology = {
      "--num-nodes=" + std::to_string(kNumNodes),
      "--num-segments=" + std::to_string(config.num_segments),
      "--replicas=2"};

  // Peers 0 and 1 prune the full warehouse down to their replica sets.
  std::vector<NodeProcess> nodes(kNumNodes);
  net::CoordinatorOptions options;
  for (int i = 0; i < 2; ++i) {
    nodes[i] = SpawnNode(full_dir, i, topology);
    ASSERT_GT(nodes[i].pid, 0);
    ASSERT_GT(nodes[i].port, 0);
    options.node_ports.push_back(nodes[i].port);
  }
  // Node 2 starts from NOTHING and must repair every owned segment from
  // the peers before it prints PORT.
  std::vector<std::string> repair_args = topology;
  repair_args.push_back("--repair-peers=" + std::to_string(nodes[0].port) +
                        "," + std::to_string(nodes[1].port));
  nodes[2] = SpawnNode(empty_dir, 2, repair_args);
  ASSERT_GT(nodes[2].pid, 0);
  ASSERT_GT(nodes[2].port, 0) << "node 2 died before finishing repair";
  options.node_ports.push_back(nodes[2].port);

  // Direct proof the empty node now holds verified copies: fetch one of its
  // owned segments straight from it and compare every blob, fingerprint
  // included, against the local warehouse.
  const Placement placement(kNumNodes, config.num_segments, 2);
  const std::vector<uint32_t> owned = placement.SegmentsOf(2);
  ASSERT_FALSE(owned.empty());
  {
    const net::Deadline deadline = net::Deadline::After(5.0);
    Result<net::Socket> sock = net::Connect(nodes[2].port, deadline);
    ASSERT_TRUE(sock.ok()) << sock.status().ToString();
    wire::Envelope env;
    env.type = wire::MsgType::kSegmentFetch;
    env.request_id = 31;
    wire::WireSegmentFetch fetch;
    fetch.segment = owned[0];
    wire::EncodeSegmentFetch(fetch, &env.payload);
    ASSERT_TRUE(net::SendEnvelope(sock.value(), env, deadline, nullptr).ok());
    Result<wire::Envelope> reply =
        net::RecvEnvelope(sock.value(), deadline, 31);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    ASSERT_EQ(reply.value().type, wire::MsgType::kSegmentPush)
        << "repair left segment " << owned[0] << " unhealed";
    Result<wire::WireSegmentPush> push =
        wire::DecodeSegmentPush(reply.value().payload);
    ASSERT_TRUE(push.ok()) << push.status().ToString();
    size_t expected_blobs = 0;
    cold.ForEachEntry([&](const BsiStoreKey& key, const std::string& bytes,
                          uint64_t fingerprint) {
      if (key.segment != owned[0]) return;
      ++expected_blobs;
      for (const wire::WireRepairBlob& blob : push.value().blobs) {
        if (blob.kind == static_cast<uint8_t>(key.kind) &&
            blob.id == key.id && blob.date == key.date) {
          EXPECT_EQ(blob.bytes, bytes);
          EXPECT_EQ(blob.fingerprint, fingerprint);
          return;
        }
      }
      ADD_FAILURE() << "healed node is missing a blob of segment "
                    << owned[0];
    });
    EXPECT_EQ(push.value().blobs.size(), expected_blobs);
  }

  // End to end: a STRICT fault-free sweep over the replicated fleet is
  // bit-identical to the direct engine -- node 2 serves its primaries.
  options.num_segments = config.num_segments;
  options.replication_factor = 2;
  const Date hi = static_cast<Date>(kLo + config.num_days - 1);
  net::Coordinator coordinator(options);
  const Result<AdhocCluster::QueryStats> stats =
      coordinator.QueryBsi({801, 802}, {901}, kLo, hi);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stats.value().degraded.degraded());
  for (const auto& [pair, values] : stats.value().results) {
    const BucketValues direct =
        ComputeStrategyMetricBsi(bsi, pair.first, pair.second, kLo, hi);
    EXPECT_EQ(values.sums, direct.sums);
    EXPECT_EQ(values.counts, direct.counts);
  }

  for (NodeProcess& node : nodes) StopNode(&node);
  RemoveSnapshotDir(full_dir);
  RemoveSnapshotDir(empty_dir);
}

// The fleet observability plane across REAL process boundaries: one of
// three expbsi_node processes runs with injected tier.fetch corruption
// (--inject, this process never shares its FaultInjector), the merged fleet
// scrape attributes the faults to exactly that node's label, and the
// degraded query's postmortem bundle carries the corrupt node's own
// flight-recorder slice -- evidence pulled over kStatsFetch from a process
// this test cannot inspect any other way.
TEST(NetProcessTest, InjectedFaultSurfacesInFleetScrapeAndPostmortem) {
  DatasetConfig config;
  config.num_users = 2000;
  config.num_segments = 6;
  config.num_days = 3;
  config.start_date = kLo;
  config.seed = 101;

  ExperimentConfig exp;
  exp.strategy_ids = {801, 802};
  exp.arm_effects = {1.0, 1.05};
  exp.traffic_salt = 13;

  MetricConfig m1;
  m1.metric_id = 901;
  m1.value_range = 40;
  m1.daily_participation = 0.6;

  const Dataset dataset = GenerateDataset(config, {exp}, {m1}, {});
  const ExperimentBsiData bsi = BuildExperimentBsiData(dataset, true);
  const BsiStore cold = BuildColdStore(bsi);
  const std::string snapshot_dir =
      WriteSnapshotDir(cold, "expbsi_net_process_obs_snapshot");

  // R=1 so the corrupt node's segments have nowhere to fail over: the query
  // must come back degraded, which is the postmortem trigger under test.
  // The victim is whichever node actually owns segments under R=1.
  const Placement placement(kNumNodes, config.num_segments, 1);
  int victim = -1;
  for (int i = 0; i < kNumNodes; ++i) {
    if (!placement.SegmentsOf(i).empty()) {
      victim = i;
      break;
    }
  }
  ASSERT_GE(victim, 0);

  std::vector<NodeProcess> nodes(kNumNodes);
  net::CoordinatorOptions options;
  for (int i = 0; i < kNumNodes; ++i) {
    std::vector<std::string> extra;
    if (i == victim) extra.push_back("--inject=tier.fetch,corrupt,1.0");
    nodes[i] = SpawnNode(snapshot_dir, i, extra);
    ASSERT_GT(nodes[i].pid, 0);
    ASSERT_GT(nodes[i].port, 0);
    options.node_ports.push_back(nodes[i].port);
  }
  options.num_segments = config.num_segments;
  options.replication_factor = 1;
  options.allow_degraded = true;
  options.postmortem_dir = ::testing::TempDir() + "expbsi_pm_process";

  net::Coordinator coordinator(options);
  const Date hi = static_cast<Date>(kLo + config.num_days - 1);
  const Result<AdhocCluster::QueryStats> stats =
      coordinator.QueryBsi({801, 802}, {901}, kLo, hi);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // Every segment the corrupt node owns was lost; every other answered.
  const std::vector<uint32_t> owned = placement.SegmentsOf(victim);
  EXPECT_EQ(stats.value().degraded.lost_segments,
            std::vector<int>(owned.begin(), owned.end()));

  // The postmortem bundle names the faults the victim injected -- its
  // flight slice crossed the process boundary via kStatsFetch.
  ASSERT_FALSE(stats.value().postmortem_path.empty());
  Result<std::string> contents = fileio::ReadFileToString(
      stats.value().postmortem_path, 16u << 20);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  const std::string& bundle = contents.value();
  EXPECT_NE(bundle.find("\"reason\": \"degraded\""), std::string::npos);
  const std::string victim_label =
      "127.0.0.1:" + std::to_string(nodes[victim].port);
  EXPECT_NE(
      bundle.find("\"node\": \"" + victim_label + "\", \"fetched\": true"),
      std::string::npos);
#if !defined(EXPBSI_NO_METRICS)
  EXPECT_NE(bundle.find("\"kind\": \"fault_injected\""), std::string::npos);
  EXPECT_NE(bundle.find("\"site\": \"tier.fetch\""), std::string::npos);
#endif

  // The merged fleet scrape shows all three nodes up and pins the fault
  // counters on the victim's label alone.
  obs::FleetScraperOptions scrape_options;
  scrape_options.node_ports = options.node_ports;
  obs::FleetScraper scraper(scrape_options);
  const obs::FleetView view = scraper.Scrape();
  const std::string prom = obs::FleetScraper::RenderPrometheus(view);
  for (int i = 0; i < kNumNodes; ++i) {
    EXPECT_NE(prom.find("expbsi_node_up{node=\"127.0.0.1:" +
                        std::to_string(nodes[i].port) + "\"} 1"),
              std::string::npos);
  }
#if !defined(EXPBSI_NO_METRICS)
  EXPECT_NE(prom.find("expbsi_fault_injected{node=\"" + victim_label + "\"}"),
            std::string::npos);
  for (int i = 0; i < kNumNodes; ++i) {
    if (i == victim) continue;
    EXPECT_EQ(prom.find("expbsi_fault_injected{node=\"127.0.0.1:" +
                        std::to_string(nodes[i].port) + "\"}"),
              std::string::npos)
        << "fault counter attributed to a clean node";
  }
#endif

  for (NodeProcess& node : nodes) StopNode(&node);
  RemoveSnapshotDir(snapshot_dir);
}

// Kill one replica of an R=2 fleet: results stay complete and bit-identical
// (failover), and once the dead node crosses the markdown threshold the
// postmortem bundle's flight events name both the markdown and the
// failovers that routed around it.
TEST(NetProcessTest, KilledReplicaPostmortemNamesMarkdownAndFailover) {
  DatasetConfig config;
  config.num_users = 2000;
  config.num_segments = 6;
  config.num_days = 3;
  config.start_date = kLo;
  config.seed = 103;

  ExperimentConfig exp;
  exp.strategy_ids = {801, 802};
  exp.arm_effects = {1.0, 1.12};
  exp.traffic_salt = 17;

  MetricConfig m1;
  m1.metric_id = 901;
  m1.value_range = 25;
  m1.daily_participation = 0.5;

  const Dataset dataset = GenerateDataset(config, {exp}, {m1}, {});
  const ExperimentBsiData bsi = BuildExperimentBsiData(dataset, true);
  const BsiStore cold = BuildColdStore(bsi);
  const std::string snapshot_dir =
      WriteSnapshotDir(cold, "expbsi_net_process_markdown_snapshot");

  std::vector<NodeProcess> nodes(kNumNodes);
  net::CoordinatorOptions options;
  for (int i = 0; i < kNumNodes; ++i) {
    nodes[i] = SpawnNode(snapshot_dir, i);
    ASSERT_GT(nodes[i].pid, 0);
    ASSERT_GT(nodes[i].port, 0);
    options.node_ports.push_back(nodes[i].port);
  }
  options.num_segments = config.num_segments;
  options.replication_factor = 2;
  options.allow_degraded = true;
  options.postmortem_dir = ::testing::TempDir() + "expbsi_pm_markdown";

  const Date hi = static_cast<Date>(kLo + config.num_days - 1);
  net::Coordinator coordinator(options);
  const Result<AdhocCluster::QueryStats> baseline =
      coordinator.QueryBsi({801, 802}, {901}, kLo, hi);
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  ASSERT_FALSE(baseline.value().degraded.degraded());
  EXPECT_TRUE(baseline.value().postmortem_path.empty());

  ::kill(nodes[1].pid, SIGKILL);
  int status = 0;
  ::waitpid(nodes[1].pid, &status, 0);
  nodes[1].pid = -1;

  // Re-query until the dead node crosses the markdown threshold (two
  // consecutive failures); every answer along the way must stay complete
  // and bit-identical to the healthy baseline.
  std::string markdown_bundle_path;
  for (int attempt = 0; attempt < 4; ++attempt) {
    const Result<AdhocCluster::QueryStats> stats =
        coordinator.QueryBsi({801, 802}, {901}, kLo, hi);
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_TRUE(stats.value().degraded.lost_segments.empty());
    for (const auto& [pair, values] : stats.value().results) {
      EXPECT_EQ(values.sums, baseline.value().results.at(pair).sums);
      EXPECT_EQ(values.counts, baseline.value().results.at(pair).counts);
    }
    if (coordinator.health().IsMarkedDown(1)) {
      markdown_bundle_path = stats.value().postmortem_path;
      break;
    }
  }
  ASSERT_TRUE(coordinator.health().IsMarkedDown(1))
      << "dead node never crossed the markdown threshold";
  ASSERT_FALSE(markdown_bundle_path.empty())
      << "markdown query produced no postmortem bundle";

  Result<std::string> contents =
      fileio::ReadFileToString(markdown_bundle_path, 16u << 20);
  ASSERT_TRUE(contents.ok()) << contents.status().ToString();
  const std::string& bundle = contents.value();
  EXPECT_NE(bundle.find("\"reason\": \"node_markdown\""), std::string::npos);
  EXPECT_NE(bundle.find("\"node\": 1, \"down\": true"), std::string::npos);
#if !defined(EXPBSI_NO_METRICS)
  EXPECT_NE(bundle.find("\"kind\": \"node_markdown\""), std::string::npos);
  EXPECT_NE(bundle.find("\"kind\": \"failover\""), std::string::npos);
#endif

  for (NodeProcess& node : nodes) StopNode(&node);
  RemoveSnapshotDir(snapshot_dir);
}

}  // namespace
}  // namespace expbsi
