"""Key placement and partial replication.

SSS "does not make any assumption on the data clustering policy; simply every
shared key can be stored in one or more nodes, depending upon the chosen
replication degree" and assumes "a local look-up function that matches keys
with nodes".  This package implements that look-up function.
"""
