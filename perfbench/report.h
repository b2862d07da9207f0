// Metric list printing: one human-readable line per metric, then the
// result JSON as the last stdout line.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }

  void Print(bool correct, size_t attempted, size_t failed) const {
    for (const Metric& m : metrics_) {
      std::printf("%-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(), metrics_[i].value,
                  metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

}  // namespace perfbench
