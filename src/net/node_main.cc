// expbsi_node: one serving node as a real process (DESIGN.md §9, §11).
//
//   expbsi_node --snapshot-dir=<dir> --node-id=N [--port=P]
//               [--max-inflight=K]
//               [--num-nodes=N --num-segments=S [--replicas=R]]
//               [--repair-peers=port1,port2,...]
//               [--postmortem-dir=<dir>]
//               [--inject=<site>,<kind>,<p>[,<delay_s>]]... [--inject-seed=S]
//
// Recovers the warehouse from a snapshot directory (SnapshotWriter, DESIGN.md
// §6), starts a NodeServer and prints "PORT <port>" on stdout so a parent
// process spawning it on an ephemeral port can learn where it listens. A
// recovery that loses any segment exits 1: a node must not serve from a
// warehouse it only partly read.
//
// With --num-nodes/--num-segments the node derives its replica set from the
// shared rendezvous Placement, prunes the recovered store to those segments
// and rejects queries for any other segment. With --repair-peers it heals
// missing or quarantined owned segments from the listed peer replicas
// (fingerprint-verified) before it starts serving.
//
// Shutdown: runs until stdin reaches EOF (the parent holds a pipe to each
// child) or SIGTERM arrives. SIGTERM drains gracefully -- stop accepting,
// finish in-flight queries, exit 0 -- so a supervisor's rolling restart is
// distinguishable from a crash.
//
// --postmortem-dir: node-local postmortem bundles for queries this node
// answers degraded (NodeServerOptions::postmortem_dir).
//
// --inject installs a process-wide FaultInjector in THIS node only, so a
// multi-process observability test can corrupt one node's cold-tier fetches
// (`--inject=tier.fetch,corrupt,1.0`) and watch the fault surface in the
// merged fleet scrape and the coordinator's postmortem. Kinds: fail,
// corrupt, crash, delay (4th field = seconds), duplicate, truncate.

#include <poll.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "cluster/placement.h"
#include "common/fault_injector.h"
#include "net/node_server.h"
#include "net/repair.h"
#include "storage/bsi_store.h"
#include "storage/snapshot.h"

namespace {

volatile std::sig_atomic_t g_sigterm = 0;

void HandleSigterm(int) { g_sigterm = 1; }

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

// One --inject=<site>,<kind>,<p>[,<delay_s>] spec, parsed up front and
// applied to the injector after all flags are read (so --inject-seed can
// come in any order).
struct InjectSpec {
  std::string site;
  std::string kind;
  double p = 0.0;
  double delay_seconds = 0.01;
};

bool ParseInjectSpec(const std::string& csv, InjectSpec* out) {
  std::vector<std::string> fields;
  size_t pos = 0;
  while (pos <= csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    fields.push_back(csv.substr(pos, comma - pos));
    pos = comma + 1;
  }
  if (fields.size() < 3 || fields.size() > 4) return false;
  out->site = fields[0];
  out->kind = fields[1];
  out->p = std::atof(fields[2].c_str());
  if (fields.size() == 4) out->delay_seconds = std::atof(fields[3].c_str());
  return !out->site.empty() && out->p > 0.0;
}

bool ApplyInjectSpec(expbsi::FaultInjector* fi, const InjectSpec& spec) {
  if (spec.kind == "fail") {
    fi->SetFailProbability(spec.site, spec.p);
  } else if (spec.kind == "corrupt") {
    fi->SetCorruptProbability(spec.site, spec.p);
  } else if (spec.kind == "crash") {
    fi->SetCrashProbability(spec.site, spec.p);
  } else if (spec.kind == "delay") {
    fi->SetDelayProbability(spec.site, spec.p, spec.delay_seconds);
  } else if (spec.kind == "duplicate") {
    fi->SetDuplicateProbability(spec.site, spec.p);
  } else if (spec.kind == "truncate") {
    fi->SetTruncateProbability(spec.site, spec.p);
  } else {
    return false;
  }
  return true;
}

std::vector<uint16_t> ParsePorts(const std::string& csv) {
  std::vector<uint16_t> ports;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    ports.push_back(
        static_cast<uint16_t>(std::atoi(csv.substr(pos, comma - pos).c_str())));
    pos = comma + 1;
  }
  return ports;
}

}  // namespace

int main(int argc, char** argv) {
  std::string snapshot_dir;
  std::string value;
  expbsi::net::NodeServerOptions options;
  int num_nodes = 0;
  int num_segments = 0;
  int replicas = 2;
  std::vector<uint16_t> repair_peers;
  std::vector<InjectSpec> inject_specs;
  uint64_t inject_seed = 42;
  for (int i = 1; i < argc; ++i) {
    if (ParseFlag(argv[i], "--snapshot-dir", &value)) {
      snapshot_dir = value;
    } else if (ParseFlag(argv[i], "--node-id", &value)) {
      options.node_id = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--port", &value)) {
      options.port = static_cast<uint16_t>(std::atoi(value.c_str()));
    } else if (ParseFlag(argv[i], "--max-inflight", &value)) {
      options.max_inflight = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--num-nodes", &value)) {
      num_nodes = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--num-segments", &value)) {
      num_segments = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--replicas", &value)) {
      replicas = std::atoi(value.c_str());
    } else if (ParseFlag(argv[i], "--repair-peers", &value)) {
      repair_peers = ParsePorts(value);
    } else if (ParseFlag(argv[i], "--postmortem-dir", &value)) {
      options.postmortem_dir = value;
    } else if (ParseFlag(argv[i], "--inject", &value)) {
      InjectSpec spec;
      if (!ParseInjectSpec(value, &spec)) {
        std::fprintf(stderr, "expbsi_node: bad --inject spec %s\n",
                     value.c_str());
        return 2;
      }
      inject_specs.push_back(std::move(spec));
    } else if (ParseFlag(argv[i], "--inject-seed", &value)) {
      inject_seed =
          static_cast<uint64_t>(std::strtoull(value.c_str(), nullptr, 10));
    } else {
      std::fprintf(stderr, "expbsi_node: unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  if (snapshot_dir.empty()) {
    std::fprintf(stderr,
                 "usage: expbsi_node --snapshot-dir=<dir> --node-id=N "
                 "[--port=P] [--max-inflight=K] "
                 "[--num-nodes=N --num-segments=S "
                 "[--replicas=R]] [--repair-peers=p1,p2,...] "
                 "[--postmortem-dir=dir] "
                 "[--inject=site,kind,p[,delay_s]]... [--inject-seed=S]\n");
    return 2;
  }

  if (!inject_specs.empty()) {
    // Leaked deliberately: the injector must outlive every server thread.
    auto* fi = new expbsi::FaultInjector(inject_seed);
    for (const InjectSpec& spec : inject_specs) {
      if (!ApplyInjectSpec(fi, spec)) {
        std::fprintf(stderr, "expbsi_node: unknown --inject kind %s\n",
                     spec.kind.c_str());
        return 2;
      }
    }
    expbsi::FaultInjector::Install(fi);
  }

  expbsi::RecoveryReport report;
  expbsi::Result<expbsi::BsiStore> store =
      expbsi::SnapshotReader::Recover(snapshot_dir, &report);
  if (!store.ok()) {
    std::fprintf(stderr, "expbsi_node: recover %s: %s\n",
                 snapshot_dir.c_str(), store.status().ToString().c_str());
    return 1;
  }
  if (!report.fully_recovered()) {
    std::fprintf(stderr, "expbsi_node: recover %s: %zu segment(s) lost\n",
                 snapshot_dir.c_str(), report.lost_segments.size());
    return 1;
  }
  expbsi::BsiStore cold = std::move(store).value();

  if (num_nodes > 0 && num_segments > 0) {
    const expbsi::Placement placement(num_nodes, num_segments, replicas);
    const std::vector<uint32_t> owned =
        placement.SegmentsOf(options.node_id);
    // Prune the (typically full) warehouse down to this node's replica
    // set: replicated serving must prove it never silently answers for a
    // segment it does not own.
    expbsi::BsiStore pruned;
    cold.ForEachEntry([&](const expbsi::BsiStoreKey& key,
                          const std::string& bytes, uint64_t fingerprint) {
      for (uint32_t seg : owned) {
        if (key.segment == seg) {
          pruned.PutRecovered(key, bytes, fingerprint);
          return;
        }
      }
    });
    cold = std::move(pruned);
    options.owned_segments = owned;

    if (!repair_peers.empty()) {
      const std::vector<uint32_t> damaged =
          expbsi::net::FindDamagedSegments(cold, placement, options.node_id);
      if (!damaged.empty()) {
        expbsi::net::RepairStats repair_stats;
        const expbsi::Status repaired = expbsi::net::RepairSegments(
            damaged, repair_peers, expbsi::net::RepairOptions{}, &cold,
            &repair_stats);
        std::fprintf(stderr,
                     "expbsi_node: repair: %d damaged, %d repaired, %d "
                     "failed (%s)\n",
                     repair_stats.segments_attempted,
                     repair_stats.segments_repaired,
                     repair_stats.segments_failed,
                     repaired.ToString().c_str());
      }
    }
  }

  expbsi::net::NodeServer server(&cold, options);
  const expbsi::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "expbsi_node: start: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::signal(SIGTERM, HandleSigterm);
  std::printf("PORT %u\n", server.port());
  std::fflush(stdout);

  // Serve until the parent closes our stdin or SIGTERM asks for a drain.
  // poll() (not a blocking fread) so the signal flag is re-checked promptly
  // even when the parent never writes.
  while (g_sigterm == 0) {
    struct pollfd pfd;
    pfd.fd = 0;
    pfd.events = POLLIN;
    const int ready = poll(&pfd, 1, 100);
    if (ready < 0 && errno != EINTR) break;
    if (ready > 0) {
      char buf[64];
      const ssize_t n = read(0, buf, sizeof(buf));
      if (n <= 0) break;  // parent closed the pipe
    }
  }
  if (g_sigterm != 0) {
    server.Drain();
    return 0;
  }
  server.Stop();
  return 0;
}
