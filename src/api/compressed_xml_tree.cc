#include "src/api/compressed_xml_tree.h"

#include <functional>
#include <utility>

#include "src/grammar/binary_format.h"
#include "src/grammar/validate.h"
#include "src/obs/trace.h"
#include "src/update/batch.h"
#include "src/xml/xml_parser.h"

namespace slg {

StatusOr<CompressedXmlTree> CompressedXmlTree::FromXml(
    std::string_view xml, const CompressOptions& compress,
    const UpdateOptions& update) {
  obs::TraceSpan span("api.from_xml");
  StatusOr<std::shared_ptr<const GrammarSnapshot>> snap =
      CompressXmlToSnapshot(xml, compress);
  if (!snap.ok()) return snap.status();
  return CompressedXmlTree(snap.take(), update);
}

StatusOr<CompressedXmlTree> CompressedXmlTree::FromGrammar(
    Grammar g, const UpdateOptions& update) {
  SLG_RETURN_IF_ERROR(Validate(g));
  return CompressedXmlTree(GrammarSnapshot::Make(std::move(g)), update);
}

StatusOr<CompressedXmlTree> CompressedXmlTree::FromSnapshot(
    std::shared_ptr<const GrammarSnapshot> snapshot,
    const UpdateOptions& update) {
  if (snapshot == nullptr) return Status::InvalidArgument("null snapshot");
  return CompressedXmlTree(std::move(snapshot), update);
}

Status CompressedXmlTree::Update(
    const std::function<Status(Grammar*, BatchUpdater*)>& edit) {
  // Clone-modify-swap: the update runs on a private clone, so any
  // failure discards the clone and the published snapshot — and with
  // it Serialize(), the damage set, the counter — is untouched.
  Grammar next = snap_->grammar().Clone();
  std::vector<LabelId> damage;
  {
    BatchUpdater batch(&next);
    SLG_RETURN_IF_ERROR(edit(&next, &batch));
    damage = batch.DamagedRules();
    batch.Finish();  // drops the summary, then garbage-collects
  }
  for (LabelId r : damage) {
    if (pending_damage_seen_.insert(r).second) pending_damage_.push_back(r);
  }
  snap_ = GrammarSnapshot::Make(std::move(next), snap_->version() + 1);
  ++updates_since_recompress_;
  if (options_.auto_recompress_every > 0 &&
      updates_since_recompress_ >= options_.auto_recompress_every) {
    Recompress();
  }
  return Status::Ok();
}

Status CompressedXmlTree::Rename(int64_t preorder, std::string_view new_tag) {
  return Update([&](Grammar*, BatchUpdater* batch) {
    return batch->Rename(preorder, new_tag);
  });
}

Status CompressedXmlTree::InsertXmlBefore(int64_t preorder,
                                          std::string_view xml_fragment) {
  StatusOr<XmlTree> parsed = ParseXml(xml_fragment);
  if (!parsed.ok()) return parsed.status();
  return Update([&](Grammar* next, BatchUpdater* batch) {
    // The fragment's labels are interned into the clone's table; on
    // failure the clone is dropped, table extension included.
    StatusOr<Tree> frag = EncodeFragment(parsed.value(), next);
    if (!frag.ok()) return frag.status();
    return batch->InsertBefore(preorder, frag.value());
  });
}

Status CompressedXmlTree::Delete(int64_t preorder) {
  return Update([&](Grammar*, BatchUpdater* batch) {
    return batch->Delete(preorder);
  });
}

void CompressedXmlTree::Recompress() {
  // The damage accumulated since the last recompression: the start
  // rule (every update isolates its path there) plus the rules whose
  // bodies those isolations inlined — without the frontier the copies
  // in the start rule could never be folded back (see
  // BatchUpdater::DamagedRules).
  std::vector<LabelId> damage = std::move(pending_damage_);
  pending_damage_.clear();
  pending_damage_seen_.clear();
  GrammarRepairResult r =
      RecompressDamaged(snap_->grammar().Clone(), damage, options_);
  snap_ = GrammarSnapshot::Make(std::move(r.grammar), snap_->version() + 1);
  updates_since_recompress_ = 0;
}

std::string CompressedXmlTree::Serialize() const {
  return SerializeGrammar(snap_->grammar());
}

StatusOr<CompressedXmlTree> CompressedXmlTree::Deserialize(
    std::string_view bytes, const UpdateOptions& update) {
  StatusOr<Grammar> g = DeserializeGrammar(bytes);
  if (!g.ok()) return g.status();
  return CompressedXmlTree(GrammarSnapshot::Make(g.take()), update);
}

}  // namespace slg
