#include "report.hpp"

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/json_writer.hpp"

namespace perfbench {

namespace util = defender::util;

void Outcome::fail(const std::string& why) {
  ++failed;
  correct = false;
  if (failures.size() < 8) failures.push_back(why);
}

std::string result_line(const Outcome& outcome) {
  util::JsonWriter metrics;
  for (const auto& [name, entry] : outcome.metrics) {
    util::JsonWriter m;
    m.num("value", entry.first);
    m.str("unit", entry.second);
    metrics.raw(name, m.object());
  }
  util::JsonWriter w;
  w.boolean("correct", outcome.correct);
  w.num("attempted", outcome.attempted);
  w.num("failed", outcome.failed);
  w.raw("metrics", metrics.object());
  return w.object();
}

std::string host_line(const std::string& compiler,
                      const std::string& build_type,
                      const std::string& commit) {
  util::JsonWriter w;
  w.num("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
  w.str("compiler", compiler);
  w.str("build_type", build_type);
  w.str("commit", commit);
  return w.object();
}

double peak_rss_mib(long pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0;
}

std::uint64_t SpanLog::add(const std::string& name, Clock::time_point start,
                           Clock::time_point end, std::uint64_t parent,
                           std::string attrs_json, std::uint64_t id) {
  if (id == 0) id = reserve();
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  util::JsonWriter w;
  w.num("id", id);
  w.num("parent", parent);
  w.str("name", name);
  w.num("start_us", us(start));
  w.num("end_us", us(end));
  w.raw("attrs", attrs_json);
  const std::lock_guard<std::mutex> lock(mu_);
  lines_.push_back(w.object());
  return id;
}

bool SpanLog::write(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  for (const std::string& line : lines_) out << line << '\n';
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
