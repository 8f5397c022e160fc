// rcsim_perfbench: runs one benchmark workload in this process and prints
// its raw measurements as one JSON object on stdout. perfbench/run.py
// builds this binary, runs every workload in a fresh process, checks the
// outputs and reduces the samples to the benchmark's metrics.
//
//   rcsim_perfbench --workload sweep_all|mesh_converge|churn_storm
//                   [--seed N] [--seconds S] [--traced 0|1]
//
// Exit status: 0 on a completed measurement (failed replicas are reported
// in the JSON, not by the exit status), 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

using perfbench::Outcome;

/// VmHWM of this process, in MiB (0 when /proc is unavailable).
double peakRssMb() {
  std::ifstream status{"/proc/self/status"};
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i != 0) out += ',';
    out += number(v[i]);
  }
  return out + "]";
}

/// Raw layer totals; run.py derives the per-world values and the ratios.
std::string layersJson(const perfbench::Layers& layers) {
  std::string out = "{";
  for (auto it = layers.begin(); it != layers.end(); ++it) {
    if (it != layers.begin()) out += ',';
    out += quote(it->first) + ":" + number(it->second);
  }
  return out + "}";
}

void print(const perfbench::Options& opts, const Outcome& o) {
  std::string out = "{";
  out += "\"workload\":" + quote(opts.workload);
  out += ",\"seed\":" + std::to_string(opts.seed);
  out += ",\"traced\":" + std::string{opts.traced ? "true" : "false"};
  out += ",\"workers\":" + std::to_string(o.workers);
  out += ",\"errors\":[";
  for (std::size_t i = 0; i < o.errors.size(); ++i) {
    if (i != 0) out += ',';
    out += quote(o.errors[i]);
  }
  out += "],\"wall_s\":" + array(o.wallSec);
  out += ",\"cpu_s\":" + array(o.cpuSec);
  out += ",\"setup_s\":" + array(o.setupSec);
  out += ",\"clock_s\":" + array(o.clockSec);
  out += ",\"replica_s\":" + array(o.replicaSec);
  out += ",\"peak_rss_mb\":" + number(peakRssMb());
  out += ",\"keys\":{";
  for (auto it = o.keys.begin(); it != o.keys.end(); ++it) {
    if (it != o.keys.begin()) out += ',';
    const perfbench::KeyRecord& k = it->second;
    out += quote(it->first) + ":{\"digest\":" + quote(k.digest) + ",\"side\":" + quote(k.side) +
           ",\"runs\":" + std::to_string(k.runs) + ",\"failed\":" + std::to_string(k.failed) + "}";
  }
  out += "}";
  if (opts.traced) {
    out += ",\"layers\":" + layersJson(o.layers);
    out += ",\"anatomy\":{\"pairs\":" + std::to_string(o.anatomyPairs) +
           ",\"off_s\":" + number(o.anatomyOffSec) + ",\"on_s\":" + number(o.anatomyOnSec) + "}";
  }
  out += "}\n";
  std::fputs(out.c_str(), stdout);
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "rcsim_perfbench: %s\n"
               "usage: rcsim_perfbench --workload sweep_all|mesh_converge|churn_storm\n"
               "                       [--seed N] [--seconds S] [--traced 0|1]\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opts.workload = value;
      } else if (arg == "--seed") {
        opts.seed = std::stoll(value);
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (arg == "--traced") {
        opts.traced = std::stoi(value) != 0;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (opts.seconds <= 0.0) usage("--seconds must be positive");
  try {
    const Outcome outcome = perfbench::runWorkload(opts);
    print(opts, outcome);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
  return 0;
}
