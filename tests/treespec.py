"""Hand-built trees for tests."""
from ilmart.trees import DecisionTree


def make_tree(spec, kind, tag):
    """Build a :class:`DecisionTree` from a nested spec.

    A leaf is its value; a split is ``(feature, threshold, left, right)``.
    Splits are numbered root first, left subtree before right, and leaves
    left to right. The walk uses an explicit stack, so specs of any depth
    work.
    """
    tree = DecisionTree([], [], [], [], [], kind, tuple(tag))
    stack = [(spec, None)]
    while stack:
        node, slot = stack.pop()
        if isinstance(node, tuple):
            ref = len(tree.split_feature)
            feature, threshold, left, right = node
            tree.split_feature.append(int(feature))
            tree.threshold.append(float(threshold))
            tree.left_child.append(None)
            tree.right_child.append(None)
            stack.append((right, (tree.right_child, ref)))
            stack.append((left, (tree.left_child, ref)))
        else:
            ref = ~len(tree.leaf_value)
            tree.leaf_value.append(float(node))
        if slot is not None:
            children, parent = slot
            children[parent] = ref
    return tree
