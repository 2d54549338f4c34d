#include "gen/replay.h"

#include <algorithm>
#include <mutex>
#include <string_view>

#include "core/incremental/session_core.h"
#include "serve/service.h"

namespace dislock {
namespace gen {

namespace {

SessionOptions MakeSessionOptions(const ReplayOptions& options) {
  SessionOptions session;
  session.json = true;
  session.config = options.config;
  session.config.num_threads = options.threads;
  return session;
}

}  // namespace

ReplayResult ReplayDirect(const Trace& trace, const ReplayOptions& options) {
  SessionCore core(MakeSessionOptions(options));
  CommandAssembler assembler(&core);
  ReplayResult result;
  for (const std::string& record : trace.records) {
    CommandAssembler::Step step = assembler.Consume(record);
    if (step.response.has_value()) result.output += *step.response;
    if (step.quit) break;
    if (step.command.has_value()) {
      result.output += core.Execute(*step.command).response;
    }
  }
  if (auto tail = assembler.Finish()) result.output += *tail;
  result.commands = core.commands();
  result.checks = core.checks();
  result.errors = core.errors();
  return result;
}

ReplayResult ReplayService(const Trace& trace, const ReplayOptions& options) {
  serve::ServiceOptions service_options;
  service_options.session = MakeSessionOptions(options);
  serve::SafetyService service(service_options);
  std::mutex mu;
  std::string output;
  int64_t client = service.OpenClient([&](const std::string& text) {
    std::lock_guard<std::mutex> lock(mu);
    output += text;
  });
  for (const std::string& record : trace.records) {
    service.Submit(client, record);
  }
  service.CloseClient(client);
  service.Drain();
  ReplayResult result;
  result.commands = service.commands();
  result.errors = service.errors();
  {
    std::lock_guard<std::mutex> lock(mu);
    result.output = std::move(output);
  }
  std::string checks = CheckLines(result.output);
  result.checks = std::count(checks.begin(), checks.end(), '\n');
  service.Shutdown();
  return result;
}

std::string CheckLines(const std::string& output) {
  std::string out;
  size_t start = 0;
  while (start < output.size()) {
    size_t end = output.find('\n', start);
    if (end == std::string::npos) end = output.size();
    std::string_view line(output.data() + start, end - start);
    if (line.find("\"cmd\": \"check\"") != std::string_view::npos) {
      out.append(line);
      out.push_back('\n');
    }
    start = end + 1;
  }
  return out;
}

VerifyResult VerifyReplay(const Trace& trace,
                          const std::vector<int>& threads_grid) {
  ReplayResult reference = ReplayDirect(trace, ReplayOptions{});
  std::string want = CheckLines(reference.output);
  VerifyResult result;
  for (int threads : threads_grid) {
    ReplayOptions options;
    options.threads = threads;
    ReplayResult got = ReplayService(trace, options);
    VerifyCell cell;
    cell.threads = threads;
    cell.identical = CheckLines(got.output) == want;
    cell.errors = got.errors;
    result.ok = result.ok && cell.identical && cell.errors == reference.errors;
    result.cells.push_back(cell);
  }
  return result;
}

}  // namespace gen
}  // namespace dislock
