#include "inputs.h"

#include "core/model.h"
#include "core/report.h"
#include "corpus/corpus.h"
#include "corpus/registry.h"
#include "gen/generator.h"
#include "ir/printer.h"
#include "support/str.h"

namespace pb {

using namespace deepmc;

uint64_t mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<Input> corpus_inputs() {
  std::vector<Input> out;
  for (const std::string& name : corpus::module_names()) {
    corpus::CorpusModule cm = corpus::build_module(name);
    Input in;
    in.kind = Input::Kind::kCorpus;
    in.name = name;
    in.text = ir::to_string(*cm.module);
    in.model = corpus::framework_model(cm.framework);
    in.expected = registry_static(name);
    out.push_back(std::move(in));
  }
  return out;
}

Input gen_input(uint64_t seed, size_t index) {
  static const corpus::Framework kFrameworks[] = {
      corpus::Framework::kPmdk, corpus::Framework::kMnemosyne,
      corpus::Framework::kPmfs, corpus::Framework::kNvmDirect};
  gen::GenOptions opts;
  opts.seed = mix(seed, index) % 1000000007ull;
  opts.framework = kFrameworks[index % 4];
  opts.force_clean = index % 5 == 4;
  gen::GeneratedProgram p = gen::generate_program(opts);
  Input in;
  in.kind = Input::Kind::kGen;
  in.name = p.name;
  in.text = std::move(p.text);
  in.model = p.model;
  for (const gen::PlantedBug& b : p.manifest.bugs)
    in.expected.insert({b.rule, b.file, b.line});
  return in;
}

Input wide_input(const std::string& tag, WideShape w, uint64_t salt) {
  const std::string file = "wide_" + tag + ".c";
  auto val = [&](size_t k) { return 1 + mix(salt, k) % 90; };
  auto store = [&](size_t k, uint64_t line) {
    return strformat("  store i64 %llu, %%f !loc(\"%s\", %llu)\n",
                     static_cast<unsigned long long>(val(k)), file.c_str(),
                     static_cast<unsigned long long>(line));
  };
  Input in;
  in.kind = Input::Kind::kWide;
  in.name = "wide/" + tag;
  in.model = core::PersistencyModel::kStrict;
  std::string& t = in.text;
  t = "module \"wide_" + tag + "\"\nstruct %rec { i64, i64 }\n\n";
  t += "define void @shared(%rec* %p) {\nentry:\n  %f = gep %p, 1\n";
  t += store(0, 999999);
  t += "  pm.flush %f, 8\n  pm.fence\n  ret\n}\n\n";
  size_t k = 1;
  for (size_t n = 0; n < w.roots; ++n) {
    const uint64_t base = 1000 * n;
    t += strformat("define void @root%zu() {\nentry:\n", n);
    t += "  %r = pm.alloc %rec\n  %f = gep %r, 0\n";
    t += store(k++, base + 1);
    t += "  pm.flush %f, 8\n  pm.fence\n  br label %d0\n";
    for (size_t d = 0; d < w.diamonds; ++d) {
      t += strformat("d%zu:\n  %%v%zu = load %%f\n  %%c%zu = lt %%v%zu, 5\n",
                     d, d, d, d);
      t += strformat("  br %%c%zu, label %%d%zua, label %%d%zub\n", d, d, d);
      for (const char* arm : {"a", "b"}) {
        t += strformat("d%zu%s:\n", d, arm);
        for (size_t s = 0; s < 2; ++s) {
          t += store(k++, base + 10 * d + s + (arm[0] == 'a' ? 2 : 6));
          t += "  pm.flush %f, 8\n  pm.fence\n";
        }
        t += strformat("  br label %%d%zue\n", d);
      }
      t += strformat("d%zue:\n", d);
      t += d + 1 < w.diamonds ? strformat("  br label %%d%zu\n", d + 1)
                            : std::string("  br label %done\n");
    }
    t += "done:\n";
    if (w.coupled > 0 && n % w.coupled == 0) t += "  call @shared(%r)\n";
    if (n % 4 == 0) {
      t += store(k++, base + 999);
      t += "  pm.fence\n";
      in.expected.insert({"strict.unflushed-write", file, static_cast<uint32_t>(base + 999)});
    }
    t += "  ret\n}\n\n";
  }
  return in;
}

core::AnalysisUnit unit_of(const Input& in) {
  return core::make_source_unit(in.name, in.text, in.model);
}

std::string framework_of(const std::string& unit) {
  const std::string prefix = unit.substr(0, unit.find('/'));
  if (prefix == "pmdk" || prefix == "pmfs" || prefix == "mnemosyne" ||
      prefix == "nvmdirect")
    return prefix + "_mini";
  return "";
}

serve::RequestFrame analyze_request(const Input& in) {
  serve::RequestFrame req;
  req.header = "{\"op\": \"analyze\", \"name\": " + core::json_quote(in.name) +
               ", \"model\": \"" + core::model_name(in.model) +
               "\", \"format\": \"json\", \"timing\": false}";
  req.body = in.text;
  return req;
}

KeySet registry_static(const std::string& module) {
  KeySet out;
  for (const corpus::BugSite& s : corpus::registry())
    if (s.module_name == module && s.detector == corpus::Detector::kStatic)
      out.insert({s.expected_rule, s.file, s.line});
  return out;
}

KeySet registry_dynamic(const std::string& module) {
  KeySet out;
  for (const corpus::BugSite& s : corpus::registry())
    if (s.module_name == module && s.detector == corpus::Detector::kDynamic)
      out.insert({s.expected_rule, s.file, s.line});
  return out;
}

std::set<std::pair<std::string, uint32_t>> registry_false_positives(
    const std::string& module) {
  std::set<std::pair<std::string, uint32_t>> out;
  for (const corpus::BugSite& s : corpus::registry())
    if (s.module_name == module &&
        s.provenance == corpus::Provenance::kFalsePositive)
      out.insert({s.file, s.line});
  return out;
}

load::EngineConfig load_config(const std::string& framework, uint64_t seed,
                               uint32_t threads, uint64_t ops_per_thread) {
  load::EngineConfig cfg;
  cfg.framework = framework;
  cfg.spec.threads = threads;
  cfg.spec.ops_per_thread = ops_per_thread;
  cfg.spec.zipf_s = 0.99;
  cfg.spec.seed = mix(seed, 0x10ad);
  cfg.checker = load::CheckerMode::kShared;
  cfg.seed_bugs = true;
  cfg.crash_random = true;
  return cfg;
}

}  // namespace pb
