"""repro.models — network definitions.

- :mod:`repro.models.specs`: exact layer-shape tables of ResNet-18/34/50/101
  at 224x224 (feed the PIM simulator; no weights required);
- :mod:`repro.models.resnet`: runnable, trainable scaled ResNets on
  :mod:`repro.nn` for the accuracy experiments.
"""
