#include "src/service/snapshot.h"

#include <utility>

#include "src/grammar/stats.h"
#include "src/grammar/value.h"
#include "src/pipeline/sharded_compressor.h"
#include "src/pipeline/thread_pool.h"
#include "src/xml/binary_encoding.h"
#include "src/xml/xml_parser.h"
#include "src/xml/xml_writer.h"

namespace slg {

GrammarSnapshot::GrammarSnapshot(Grammar g, int64_t version)
    : g_(std::move(g)),
      summary_(std::make_shared<const RuleSummary>(RuleSummary::Build(g_))),
      nav_(summary_.get()),
      version_(version),
      edges_(ComputeStats(g_).edge_count),
      element_count_(summary_->DerivedElementCount()) {}

std::shared_ptr<const GrammarSnapshot> GrammarSnapshot::Make(Grammar g,
                                                             int64_t version) {
  return std::shared_ptr<const GrammarSnapshot>(
      new GrammarSnapshot(std::move(g), version));
}

StatusOr<std::string> GrammarSnapshot::LabelAt(int64_t preorder) const {
  StatusOr<LabelId> l = nav_.LabelAt(preorder);
  if (!l.ok()) return l.status();
  return std::string(g_.labels().Name(l.value()));
}

StatusOr<int64_t> GrammarSnapshot::FindElement(std::string_view tag,
                                               int64_t k) const {
  // Argument validity precedes existence, matching every read
  // surface's status contract (tests/status_contract_test.cc).
  if (k < 1) return Status::InvalidArgument("k must be >= 1");
  LabelId want = g_.labels().Find(tag);
  if (want == kNoLabel) return Status::NotFound("tag never occurs");
  return nav_.FindLabel(want, k);
}

StatusOr<QueryResult> GrammarSnapshot::RunQuery(std::string_view query) const {
  return QueryEngine(&g_, summary_.get()).Run(query);
}

StatusOr<QueryResult> GrammarSnapshot::RunQuery(const Query& query) const {
  return QueryEngine(&g_, summary_.get()).Run(query);
}

StatusOr<std::string> GrammarSnapshot::ToXml(bool pretty) const {
  StatusOr<Tree> tree = Value(g_);
  if (!tree.ok()) return tree.status();
  StatusOr<XmlTree> xml = DecodeBinary(tree.value(), g_.labels());
  if (!xml.ok()) return xml.status();
  XmlWriteOptions opts;
  opts.pretty = pretty;
  return WriteXml(xml.value(), opts);
}

GrammarCursor GrammarSnapshot::Cursor() const {
  return GrammarCursor(&g_, summary_);
}

StatusOr<std::shared_ptr<const GrammarSnapshot>> CompressXmlToSnapshot(
    std::string_view xml, const CompressOptions& options) {
  StatusOr<XmlTree> parsed = ParseXml(xml);
  if (!parsed.ok()) return parsed.status();
  LabelTable labels;
  Tree bin = EncodeBinary(parsed.value(), &labels);
  // Dispatch on the *shard* count — the documented determinism knob.
  // num_shards == 1 takes the sequential path whatever the thread
  // count; num_shards == 0 follows the (resolved) thread count.
  int resolved_threads = options.num_threads == 0
                             ? ThreadPool::HardwareThreads()
                             : options.num_threads;
  bool use_sharded = options.num_shards > 1 ||
                     (options.num_shards == 0 && resolved_threads > 1);
  if (use_sharded) {
    ShardedCompressorOptions sharded;
    sharded.num_threads = options.num_threads;
    sharded.num_shards = options.num_shards;
    // options.repair governs every repair the pipeline runs: the
    // shard runs and the top-level pass take the RepairOptions (the
    // pipeline re-disables per-shard pruning — a pipeline invariant,
    // see ShardedCompressorOptions), the kFull tier the whole struct.
    sharded.shard_repair = options.repair.repair;
    sharded.shard_repair.prune = false;
    sharded.merge_repair = options.repair;
    ShardedCompressResult r = ShardedCompress(std::move(bin), labels, sharded);
    return GrammarSnapshot::Make(std::move(r.grammar));
  }
  Grammar g = Grammar::ForTree(std::move(bin), std::move(labels));
  GrammarRepairResult r = GrammarRePair(std::move(g), options.repair);
  return GrammarSnapshot::Make(std::move(r.grammar));
}

}  // namespace slg
