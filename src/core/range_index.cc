#include "src/core/range_index.h"

#include <algorithm>

namespace copier::core {

RangeIndex::~RangeIndex() {
  FreeTree(roots_[0]);
  FreeTree(roots_[1]);
}

void RangeIndex::FreeTree(Node* n) {
  if (n == nullptr) {
    return;
  }
  FreeTree(n->left);
  FreeTree(n->right);
  delete n;
}

void RangeIndex::Update(Node* n) {
  n->max_hi = n->hi;
  if (n->left != nullptr) {
    n->max_hi = std::max(n->max_hi, n->left->max_hi);
  }
  if (n->right != nullptr) {
    n->max_hi = std::max(n->max_hi, n->right->max_hi);
  }
}

RangeIndex::Node* RangeIndex::RotateRight(Node* n) {
  Node* l = n->left;
  n->left = l->right;
  l->right = n;
  Update(n);
  Update(l);
  return l;
}

RangeIndex::Node* RangeIndex::RotateLeft(Node* n) {
  Node* r = n->right;
  n->right = r->left;
  r->left = n;
  Update(n);
  Update(r);
  return r;
}

RangeIndex::Node* RangeIndex::InsertNode(Node* n, Node* fresh) {
  if (n == nullptr) {
    Update(fresh);
    return fresh;
  }
  if (KeyLess(fresh->lo, fresh->order, fresh->hi, *n)) {
    n->left = InsertNode(n->left, fresh);
    if (n->left->priority > n->priority) {
      n = RotateRight(n);
    }
  } else {
    n->right = InsertNode(n->right, fresh);
    if (n->right->priority > n->priority) {
      n = RotateLeft(n);
    }
  }
  Update(n);
  return n;
}

RangeIndex::Node* RangeIndex::EraseNode(Node* n, Coord lo, uint64_t order, Coord hi,
                                        bool* erased) {
  if (n == nullptr) {
    return nullptr;
  }
  if (lo == n->lo && order == n->order && hi == n->hi) {
    *erased = true;
    if (n->left == nullptr || n->right == nullptr) {
      Node* child = n->left != nullptr ? n->left : n->right;
      delete n;
      return child;
    }
    // Rotate the higher-priority child up, then recurse into the side the
    // doomed node moved to.
    if (n->left->priority > n->right->priority) {
      n = RotateRight(n);
      n->right = EraseNode(n->right, lo, order, hi, erased);
    } else {
      n = RotateLeft(n);
      n->left = EraseNode(n->left, lo, order, hi, erased);
    }
  } else if (KeyLess(lo, order, hi, *n)) {
    n->left = EraseNode(n->left, lo, order, hi, erased);
  } else {
    n->right = EraseNode(n->right, lo, order, hi, erased);
  }
  Update(n);
  return n;
}

void RangeIndex::Insert(Side side, uint64_t domain, uint64_t start, size_t length,
                        uint64_t order, PendingTask* task, size_t task_offset) {
  if (length == 0) {
    return;
  }
  Node* fresh = new Node;
  fresh->lo = Pack(domain, start);
  fresh->hi = fresh->lo + length;
  fresh->order = order;
  fresh->task_offset = task_offset;
  fresh->task = task;
  fresh->priority = NextPriority();
  Node*& root = roots_[static_cast<size_t>(side)];
  root = InsertNode(root, fresh);
  ++size_;
}

void RangeIndex::Erase(Side side, uint64_t domain, uint64_t start, size_t length,
                       uint64_t order) {
  bool erased = false;
  Node*& root = roots_[static_cast<size_t>(side)];
  const Coord lo = Pack(domain, start);
  root = EraseNode(root, lo, order, lo + length, &erased);
  if (erased) {
    --size_;
  }
}

}  // namespace copier::core
