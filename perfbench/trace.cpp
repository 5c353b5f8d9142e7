#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

Tracer::Span::Span(Tracer& tracer, const char* name) : tracer_(tracer) {
  if (!tracer_.on_) return;
  SpanRecord rec;
  rec.name = name;
  rec.parent = tracer_.open_.empty() ? -1 : tracer_.open_.back();
  rec.op = tracer_.op_;
  rec.pass = tracer_.pass_;
  index_ = static_cast<std::int32_t>(tracer_.records_.size());
  tracer_.open_.push_back(index_);
  rec.start_ns = tracer_.now_ns();
  tracer_.records_.push_back(rec);
}

Tracer::Span::~Span() {
  if (index_ < 0) return;
  tracer_.records_[static_cast<std::size_t>(index_)].end_ns = tracer_.now_ns();
  tracer_.open_.pop_back();
}

std::map<std::string, double> Tracer::self_seconds_by_name(
    const std::vector<std::int32_t>& passes, bool in_ops) const {
  std::vector<std::int64_t> child_ns(records_.size(), 0);
  for (const SpanRecord& r : records_) {
    if (r.parent >= 0) child_ns[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    if ((r.op >= 0) != in_ops) continue;
    if (std::find(passes.begin(), passes.end(), r.pass) == passes.end()) continue;
    out[r.name] += static_cast<double>(r.end_ns - r.start_ns - child_ns[i]) * 1e-9;
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path, std::string_view workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"workload\":\"%.*s\"},"
                  "\"traceEvents\":[\n",
               static_cast<int>(workload.size()), workload.data());
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const SpanRecord& r = records_[i];
    const std::string_view module = span_module(r.name);
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"op\":%lld,"
                 "\"pass\":%d}}",
                 i == 0 ? "" : ",\n", r.name, static_cast<int>(module.size()), module.data(),
                 static_cast<double>(r.start_ns) * 1e-3,
                 static_cast<double>(r.end_ns - r.start_ns) * 1e-3, i, r.parent,
                 static_cast<long long>(r.op), r.pass);
  }
  std::fprintf(f, "\n]}\n");
  const bool written = std::ferror(f) == 0;
  return std::fclose(f) == 0 && written;
}

std::string_view span_module(std::string_view name) {
  return name.substr(0, name.find('.'));
}

}  // namespace perfbench
