// Seeded mutation fuzzer for the manifest layer. Every input must either
// parse — and then serialize -> parse -> serialize is a fixed point — or be
// rejected with CheckError; no other exception may escape.
//
// Seed corpus: every shipped manifest plus the hand-written round-trip
// manifests of manifest_test.cpp. The key vocabulary and its sample values
// come from the seeds' canonical serialize() output, which emits every knob
// of a kind, so the fuzzer follows the knob table without new API.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/manifest.hpp"
#include "util/check.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace eend::core {
namespace {

const char* const kHandWrittenSeeds[] = {
    R"({"name":"t","experiments":[{"id":"fig8","kind":"sweep",
        "scenario":{"preset":"small_network"},
        "stacks":["titan_pc","dsr_active"],"rates_pps":[2,4],"runs":2,
        "seed":7,"metrics":["delivery_ratio"]}]})",
    R"({"name":"g","experiments":[{"id":"fig13","kind":"grid",
        "stacks":["dsr_perfect","dsr_active"],"rates_pps":[2,3],
        "base_rate_pps":2,"quick":{"duration_s":60}}]})",
    R"({"name":"d","experiments":[{"id":"t2","kind":"density",
        "stacks":["titan_pc"],"node_counts":[300,400],
        "quick":{"node_counts":[300],"runs":1}}]})",
    R"({"name":"m","experiments":[{"id":"fig7","kind":"mopt",
        "cards":[{"card":"Cabletron","distance_m":250}],"rb":[0.1,0.5]}]})",
    R"({"name":"s","experiments":[{"id":"ds","kind":"design",
        "node_counts":[50,200],"heuristics":["klein_ravi","portfolio"],
        "demands":6,"starts":4,"anneal_iters":150,"runs":2,
        "quick":{"node_counts":[50],"runs":1}}]})",
    R"({"name":"r","experiments":[{"id":"rp","kind":"replay",
        "node_counts":[50,100],
        "heuristics":["klein_ravi","portfolio_lifetime"],
        "demands":6,"stack":"dsr_active","duration_s":120,
        "rate_pps":16,"battery_j":102.5,
        "demand_weights":[0.5,1,3],"runs":2,
        "quick":{"node_counts":[50],"runs":1,"duration_s":60}}]})",
    R"({"name":"s","experiments":[{"id":"ds","kind":"design",
        "node_counts":[50],"heuristics":["klein_ravi"],"presolve":true,
        "metrics":["eq5_total","lb","certified_gap_pct"]}]})",
    R"({"name":"c","experiments":[{"id":"ch","kind":"churn",
        "node_counts":[40,80],"epochs":6,"demands":5,
        "arrivals_per_epoch":2,"failures_per_epoch":1,
        "rate_swing":0.4,"move_fraction":0.1,"move_sigma_m":60,
        "fallback_pct":5,"runs":2,"demand_weights":[0.5,1,3],
        "quick":{"node_counts":[40],"runs":1,"epochs":3}}]})",
    R"({"name":"c","experiments":[{"id":"ch","kind":"churn",
        "node_counts":[40],"epochs":6,"replay_every":2,
        "stack":"dsr_active","duration_s":120,"rate_pps":8,
        "schedule":[
          {"at":1,"events":[
            {"op":"arrive","source":3,"destination":9,"weight":2.5},
            {"op":"rate","demand":0,"factor":0.5}]},
          {"at":3,"events":[
            {"op":"fail","node":12},
            {"op":"move","node":5,"x":100.5,"y":200},
            {"op":"depart","demand":1}]}]}]})",
};

const char* const kKinds[] = {"sweep", "density", "grid",  "mopt",
                              "design", "replay", "churn", "warp"};

/// Keys seen at each nesting level of the canonical seeds, with every value
/// each key took ("experiment", "quick", "scenario", ...).
using Vocabulary = std::map<std::string, std::map<std::string,
                                                  std::vector<json::Value>>>;

void collect(const json::Value& v, const std::string& level,
             Vocabulary& vocab) {
  if (v.is_array())
    for (const json::Value& x : v.as_array()) collect(x, level, vocab);
  if (!v.is_object()) return;
  for (const auto& [key, value] : v.as_object()) {
    vocab[level][key].push_back(value);
    collect(value, key == "experiments" ? "experiment" : key, vocab);
  }
}

class Mutator {
 public:
  Mutator(const Vocabulary& vocab, std::uint64_t seed)
      : vocab_(vocab), rng_(seed) {}

  json::Value mutate(const json::Value& manifest) {
    json::Value out = manifest;
    const std::uint64_t steps = 1 + rng_.next_below(3);
    for (std::uint64_t i = 0; i < steps; ++i) out = mutate_once(out);
    return out;
  }

 private:
  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_.next_below(n));
  }

  json::Value random_value(int depth = 0) {
    switch (pick(depth > 1 ? 6 : 9)) {
      case 0: return json::Value();
      case 1: return json::Value(pick(2) == 0);
      case 2: return json::Value(static_cast<double>(pick(20)));
      case 3: return json::Value(rng_.uniform(-1e3, 1e7));
      case 4: return json::Value(pick(2) ? "portfolio" : "small_network");
      case 5: return json::Value(std::string("x") + std::to_string(pick(9)));
      case 6: return json::Value(json::Array{});
      case 7: {
        json::Array a;
        for (std::size_t i = pick(4); i > 0; --i)
          a.push_back(random_value(depth + 1));
        return a;
      }
      default: {
        json::Object o;
        o.emplace_back("preset", random_value(depth + 1));
        return o;
      }
    }
  }

  /// A replacement for `key` at `level`: usually a value the key took in
  /// some seed, otherwise one of a random type.
  json::Value value_for(const std::string& level, const std::string& key) {
    const auto lv = vocab_.find(level);
    if (lv != vocab_.end() && pick(3) != 0) {
      const auto kv = lv->second.find(key);
      if (kv != lv->second.end()) return kv->second[pick(kv->second.size())];
    }
    return random_value();
  }

  std::string random_key(const std::string& level) {
    const auto lv = vocab_.find(level);
    if (lv == vocab_.end() || pick(8) == 0) return "bogus_key";
    auto it = lv->second.begin();
    std::advance(it, static_cast<std::ptrdiff_t>(pick(lv->second.size())));
    return it->first;
  }

  json::Object mutate_object(json::Object o, const std::string& level) {
    // Descend into a nested object or array of objects half the time.
    if (!o.empty() && pick(2) == 0) {
      auto& [key, child] = o[pick(o.size())];
      const std::string sub = key == "experiments" ? "experiment" : key;
      if (child.is_object()) {
        child = mutate_object(child.as_object(), sub);
        return o;
      }
      if (child.is_array() && !child.as_array().empty()) {
        json::Array a = child.as_array();
        json::Value& elem = a[pick(a.size())];
        if (elem.is_object()) {
          elem = mutate_object(elem.as_object(), sub);
          child = std::move(a);
          return o;
        }
      }
    }
    switch (pick(5)) {
      case 0:  // drop a key
        if (!o.empty())
          o.erase(o.begin() + static_cast<std::ptrdiff_t>(pick(o.size())));
        break;
      case 1: {  // add (or overwrite) a key with a value of random type
        const std::string key = random_key(level);
        json::Value value = pick(2) ? random_value() : value_for(level, key);
        const auto it = std::find_if(o.begin(), o.end(), [&](const auto& kv) {
          return kv.first == key;
        });
        if (it != o.end())
          it->second = std::move(value);
        else
          o.emplace_back(key, std::move(value));
        break;
      }
      case 2:  // swap the kind
        for (auto& [key, value] : o)
          if (key == "kind") value = json::Value(kKinds[pick(8)]);
        break;
      case 3:  // empty or duplicate an array
        for (auto& [key, value] : o) {
          if (!value.is_array() || pick(2) == 0) continue;
          json::Array a = value.as_array();
          if (a.empty() || pick(2) == 0)
            a.clear();
          else
            a.push_back(a[pick(a.size())]);
          value = std::move(a);
          break;
        }
        break;
      default:  // change a value's type
        if (!o.empty()) o[pick(o.size())].second = random_value();
        break;
    }
    return o;
  }

  json::Value mutate_once(const json::Value& v) {
    if (!v.is_object()) return v;
    return mutate_object(v.as_object(), "manifest");
  }

  const Vocabulary& vocab_;
  Rng rng_;
};

std::vector<json::Value> seed_corpus() {
  std::vector<std::string> texts;
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(EEND_MANIFEST_DIR))
    if (entry.path().extension() == ".json") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  for (const auto& f : files)
    texts.push_back(Manifest::load(f.string()).serialize());
  for (const char* text : kHandWrittenSeeds)
    texts.push_back(Manifest::parse(text).serialize());
  std::vector<json::Value> out;
  for (const std::string& t : texts) out.push_back(json::parse(t));
  return out;
}

TEST(ManifestFuzz, MutantsParseToAFixedPointOrFailWithCheckError) {
  const std::vector<json::Value> seeds = seed_corpus();
  ASSERT_EQ(seeds.size(), 12u + std::size(kHandWrittenSeeds));
  Vocabulary vocab;
  for (const json::Value& s : seeds) collect(s, "manifest", vocab);
  // Every kind's knobs reach the vocabulary through its canonical form.
  for (const char* key : {"stacks", "rates_pps", "node_counts", "heuristics",
                          "cards", "rb", "schedule", "arrivals_per_epoch",
                          "battery_j", "base_rate_pps", "quick", "metrics"})
    EXPECT_TRUE(vocab["experiment"].count(key)) << key;

  Mutator mutator(vocab, 20261017);
  constexpr std::size_t kCases = 3000;
  std::size_t parsed = 0;
  for (std::size_t i = 0; i < kCases; ++i) {
    const std::string text =
        json::dump(mutator.mutate(seeds[i % seeds.size()]), 2);
    Manifest m1;
    try {
      m1 = Manifest::parse(text);
    } catch (const CheckError&) {
      continue;  // rejected with a message: the contract for bad input
    } catch (const std::exception& e) {
      FAIL() << "case " << i << " threw a non-CheckError: " << e.what()
             << "\n" << text;
    }
    ++parsed;
    const std::string canon = m1.serialize();
    Manifest m2;
    try {
      m2 = Manifest::parse(canon);
    } catch (const std::exception& e) {
      FAIL() << "case " << i << ": canonical form rejected: " << e.what()
             << "\n" << canon;
    }
    ASSERT_EQ(canon, m2.serialize()) << "case " << i << ":\n" << text;
    ASSERT_TRUE(m1.to_json() == m2.to_json()) << "case " << i << ":\n"
                                              << text;
  }
  // The mutations must exercise both outcomes, not only rejections.
  EXPECT_GT(parsed, kCases / 20);
  EXPECT_LT(parsed, kCases);
}

}  // namespace
}  // namespace eend::core
