#include "sim/federate.h"

#include <stdexcept>

#include "sim/federation.h"

namespace mgrid::sim {

Federate::Federate(std::string name, Duration lookahead)
    : name_(std::move(name)), lookahead_(lookahead) {
  if (lookahead < 0.0) {
    throw std::invalid_argument("Federate: lookahead must be >= 0");
  }
}

Federation& Federate::federation() const {
  if (federation_ == nullptr) {
    throw std::logic_error("Federate '" + name_ + "' has not joined");
  }
  return *federation_;
}

void Federate::send(TopicId topic, SimTime timestamp,
                    std::shared_ptr<const InteractionPayload> payload) {
  federation().submit(*this, topic, timestamp, std::move(payload));
}

TopicId Federate::subscribe(std::string_view topic) {
  return federation().subscribe(*this, topic);
}

TopicId Federate::topic(std::string_view name) const {
  return federation().topic(name);
}

SimTime Federate::granted_time() const { return federation().current_grant_; }

}  // namespace mgrid::sim
