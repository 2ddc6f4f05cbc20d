#include "trace/event.hpp"

#include <sstream>

namespace pals {
namespace {

struct Stringifier {
  std::ostringstream os;

  Stringifier() { os.precision(17); }  // round-trippable doubles

  void operator()(const ComputeEvent& e) {
    os << "compute " << e.duration;
    if (e.phase >= 0) os << " phase=" << e.phase;
  }
  void operator()(const SendEvent& e) {
    os << "send " << e.peer << ' ' << e.tag << ' ' << e.bytes;
  }
  void operator()(const RecvEvent& e) {
    os << "recv " << e.peer << ' ' << e.tag << ' ' << e.bytes;
  }
  void operator()(const IsendEvent& e) {
    os << "isend " << e.peer << ' ' << e.tag << ' ' << e.bytes << ' '
       << e.request;
  }
  void operator()(const IrecvEvent& e) {
    os << "irecv " << e.peer << ' ' << e.tag << ' ' << e.bytes << ' '
       << e.request;
  }
  void operator()(const WaitEvent& e) { os << "wait " << e.request; }
  void operator()(const WaitAllEvent&) { os << "waitall"; }
  void operator()(const CollectiveEvent& e) {
    os << "coll " << to_string(e.op) << ' ' << e.bytes << ' ' << e.root;
  }
  void operator()(const MarkerEvent& e) {
    os << "marker " << to_string(e.kind) << ' ' << e.id;
  }
};

}  // namespace

std::string to_string(const Event& event) {
  Stringifier s;
  std::visit(s, event);
  return s.os.str();
}

}  // namespace pals
