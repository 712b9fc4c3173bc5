"""Numpy neural-network kernel with per-sample gradients.

`nn.layers` holds the layer tree: each primitive's parameter layout,
forward and backward (per-sample or batch-summed), and the containers
that nest them. `nn.model` holds what runs on a tree: the split `Model`,
the losses, the batch cuts, the minibatch samplers and the trainers.
Import each name from the module that defines it.
"""
